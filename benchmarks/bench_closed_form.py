"""Appendix E: the n = 2 closed forms and mechanism non-equivalence.

Tabulates the Lemma 3 Laplace argmax probability against the Exponential
mechanism's logistic over a sweep of utility gaps, verifying (a) the closed
form against the Laplace mechanism's exact grouped integral, whose
two-candidate case it is, and (b) that the two mechanisms are genuinely
different functions of the gap ('the reader can verify the two are not
equivalent through value substitution').
"""

from __future__ import annotations

import numpy as np

from repro.bounds.closed_form import compare_mechanisms_two_candidates
from repro.experiments.reporting import render_table
from repro.mechanisms.laplace import LaplaceMechanism
from repro.utility.base import UtilityVector


def _run(epsilon: float = 1.0):
    gaps = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    comparisons = compare_mechanisms_two_candidates(gaps, epsilon=epsilon)
    # The grouped integral at every gap: Lemma 3 is its n = 2 case.
    mechanism = LaplaceMechanism(epsilon)
    exact = [
        float(
            mechanism.probabilities(
                UtilityVector(
                    target=0,
                    candidates=np.asarray([1, 2]),
                    values=np.asarray([gap, 0.0]),
                    target_degree=1,
                )
            )[0]
        )
        for gap in gaps
    ]
    return comparisons, exact


def test_closed_form_comparison(benchmark):
    comparisons, exact = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["gap", "Laplace (Lemma 3)", "Laplace (grouped integral)", "Exponential", "difference"],
            [
                [c.gap, c.laplace, integral, c.exponential, c.difference]
                for c, integral in zip(comparisons, exact)
            ],
        )
    )
    worst = max(abs(c.laplace - integral) for c, integral in zip(comparisons, exact))
    print(f"\nLemma 3 vs grouped integral, worst gap: {worst:.2e}")
    assert worst < 1e-13
    # Non-equivalence: some gap where the mechanisms disagree materially.
    assert max(abs(c.difference) for c in comparisons) > 0.01
    # Agreement at the extremes.
    assert comparisons[0].difference == 0.0
    assert abs(comparisons[-1].difference) < 1e-3
