"""Exact-pmf goodness of fit for the samplers.

``ExponentialMechanism.recommend_vectors`` draws one Gumbel key per
positive-utility candidate plus one grouped ``log|Z| + G`` key for the
zero bucket ``Z``, then a uniform rank inside ``Z`` when that key wins.
``LaplaceMechanism.recommend`` adds Laplace noise to every candidate and
takes the argmax, and ``SmoothingMechanism`` mixes its base's draw with a
uniform one. These tests hold each sampler's draws against the
mechanism's exact ``probabilities``: a G-test over the support with the
zero bucket pooled into one category, and a G-test of uniformity over
the bucket's members. Seeds are fixed, so pass/fail is deterministic;
``ALPHA`` is the level each test rejects at.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import chi2

from repro.compute import utility_vectors
from repro.datasets import wiki_vote
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.smoothing import SmoothingMechanism
from repro.utility.base import UtilityVector
from repro.utility.common_neighbors import CommonNeighbors

DRAWS = 20_000
ALPHA = 1e-3
#: Cells expected to hold fewer draws are pooled, as the G-test requires.
MIN_EXPECTED = 5.0


@lru_cache(maxsize=None)
def _wiki_row() -> UtilityVector:
    graph = wiki_vote(scale=0.05)
    vectors = utility_vectors(graph, CommonNeighbors(), range(graph.num_nodes))
    # A row with several positive utilities and a populated zero bucket.
    return next(v for v in vectors if 4 <= v.support()[0].size <= 30)


#: name -> (support-form row, epsilon, seed). Sensitivity is 1 throughout.
CASES = {
    "mixed": (
        lambda: UtilityVector.from_support(0, [2, 5, 9, 11], [3.0, 1.0, 2.0, 1.0],
                                           [0, 1, 4], 14, 2),
        1.0, 11,
    ),
    "wiki_row": (_wiki_row, 0.5, 12),
    "empty_zero_bucket": (
        lambda: UtilityVector.from_support(3, [0, 1, 2, 5], [1.0, 2.0, 0.5, 3.0],
                                           [3, 4], 6, 1),
        0.8, 13,
    ),
    "empty_support": (
        lambda: UtilityVector.from_support(0, [], [], [0, 3], 10, 1),
        1.0, 14,
    ),
    "negligible_bucket": (
        lambda: UtilityVector.from_support(0, [2, 6], [4.0, 2.0], [0, 1], 9, 1),
        40.0, 15,
    ),
}


def _row(case: str, form: str, dtype: str) -> "tuple[UtilityVector, float, int]":
    """The case's row with its utilities stored at ``dtype``.

    Serving fills float64 rows; float32 ones are still valid input to
    the public mechanism API, so the sampler is held to the pmf at both.
    """
    build, epsilon, seed = CASES[case]
    vector = build()
    vector = vector._with_values(vector.support()[1].astype(dtype))
    if form == "dense":
        vector = UtilityVector(
            vector.target, vector.candidates, vector.values, vector.target_degree
        )
    return vector, epsilon, seed


def g_test_pvalue(observed: np.ndarray, probabilities: np.ndarray) -> float:
    """p-value of a G-test of ``observed`` counts against ``probabilities``."""
    expected = probabilities / probabilities.sum() * observed.sum()
    small = expected < MIN_EXPECTED
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    seen = observed > 0
    statistic = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    dof = observed.size - 1
    return float(chi2.sf(statistic, dof)) if dof > 0 else 1.0


@lru_cache(maxsize=None)
def _draw_counts(case: str, form: str, dtype: str) -> np.ndarray:
    """Draw counts per candidate position of the case's row."""
    vector, epsilon, seed = _row(case, form, dtype)
    mechanism = ExponentialMechanism(epsilon, sensitivity=1.0)
    rng = np.random.default_rng(seed)
    picks = mechanism.recommend_vectors([vector] * DRAWS, [rng] * DRAWS)
    candidates = vector.candidates
    positions = np.searchsorted(candidates, picks)
    assert (candidates[np.minimum(positions, candidates.size - 1)] == picks).all()
    return np.bincount(positions, minlength=candidates.size)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("form", ["support", "dense"])
@pytest.mark.parametrize("case", sorted(CASES))
class TestExactPmfFit:
    def test_pooled_bucket_matches_probabilities(self, case, form, dtype):
        vector, epsilon, seed = _row(case, form, dtype)
        exact = ExponentialMechanism(epsilon, sensitivity=1.0).probabilities(vector)
        counts = _draw_counts(case, form, dtype)
        support = vector.values > 0
        observed = np.append(counts[support], counts[~support].sum())
        expected = np.append(exact[support], exact[~support].sum())
        assert g_test_pvalue(observed, expected) > ALPHA

    def test_uniform_inside_zero_bucket(self, case, form, dtype):
        vector = _row(case, form, dtype)[0]
        bucket = _draw_counts(case, form, dtype)[vector.values == 0]
        if case == "empty_zero_bucket":
            assert bucket.size == 0
            return
        if case == "negligible_bucket":
            assert bucket.sum() == 0  # bucket mass is ~5e-70 here
            return
        assert g_test_pvalue(bucket, np.ones(bucket.size)) > ALPHA


#: name -> mechanism at a case's epsilon (sensitivity 1), drawn from one
#: ``recommend`` call at a time.
RECOMMENDERS = {
    "laplace": lambda epsilon: LaplaceMechanism(epsilon, sensitivity=1.0),
    "smoothing_laplace": lambda epsilon: SmoothingMechanism(
        0.7, base=LaplaceMechanism(epsilon, sensitivity=1.0)
    ),
}


def _recommend_counts(mechanism, vector: UtilityVector, seed: int) -> np.ndarray:
    """Draw counts per candidate position of ``DRAWS`` ``recommend`` calls."""
    rng = np.random.default_rng(seed)
    picks = np.asarray([mechanism.recommend(vector, seed=rng) for _ in range(DRAWS)])
    candidates = vector.candidates
    positions = np.searchsorted(candidates, picks)
    assert (candidates[np.minimum(positions, candidates.size - 1)] == picks).all()
    return np.bincount(positions, minlength=candidates.size)


@lru_cache(maxsize=None)
def _recommender_counts(sampler: str, case: str, form: str) -> np.ndarray:
    vector, epsilon, seed = _row(case, form, "float64")
    return _recommend_counts(RECOMMENDERS[sampler](epsilon), vector, seed)


@pytest.mark.parametrize("form", ["support", "dense"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("sampler", sorted(RECOMMENDERS))
class TestRecommendFit:
    """The Laplace sampler, alone and as a smoothing base, against the
    exact grouped-integral probabilities."""

    def test_pooled_bucket_matches_probabilities(self, sampler, case, form):
        vector, epsilon, _ = _row(case, form, "float64")
        exact = RECOMMENDERS[sampler](epsilon).probabilities(vector)
        counts = _recommender_counts(sampler, case, form)
        support = vector.values > 0
        observed = np.append(counts[support], counts[~support].sum())
        expected = np.append(exact[support], exact[~support].sum())
        assert g_test_pvalue(observed, expected) > ALPHA

    def test_uniform_inside_zero_bucket(self, sampler, case, form):
        vector, epsilon, _ = _row(case, form, "float64")
        zero = vector.values == 0
        bucket = _recommender_counts(sampler, case, form)[zero]
        if bucket.sum() == 0:
            exact = RECOMMENDERS[sampler](epsilon).probabilities(vector)
            assert exact[zero].sum() < 1e-12  # empty or negligible bucket
            return
        assert g_test_pvalue(bucket, np.ones(bucket.size)) > ALPHA


def test_forms_and_dtypes_draw_identically():
    """One stream, one row: the pick does not depend on the storage form,
    and float32 rows of integer utilities match float64 ones."""
    picks = set()
    for form in ("support", "dense"):
        for dtype in ("float64", "float32"):
            vector, epsilon, seed = _row("mixed", form, dtype)
            mechanism = ExponentialMechanism(epsilon, sensitivity=1.0)
            rng = np.random.default_rng(seed)
            picks.add(tuple(mechanism.recommend_vectors([vector] * 500, [rng] * 500)))
    assert len(picks) == 1


def test_fit_detects_a_biased_sampler():
    """The G-test has power at this draw count: dropping the bucket's
    ``log|Z|`` term (treating the bucket as one candidate) is rejected,
    and so is Laplace noise at half its scale."""
    vector, epsilon, seed = _row("mixed", "support", "float64")
    exact = ExponentialMechanism(epsilon, sensitivity=1.0).probabilities(vector)
    support = vector.values > 0
    expected = np.append(exact[support], exact[~support].sum())
    biased = np.append(np.exp(epsilon * vector.support()[1]), 1.0)
    rng = np.random.default_rng(seed)
    observed = np.bincount(
        rng.choice(biased.size, size=DRAWS, p=biased / biased.sum()),
        minlength=biased.size,
    )
    assert g_test_pvalue(observed, expected) < ALPHA

    # A Laplace sampler whose noise scale is halved is rejected too.
    exact = LaplaceMechanism(epsilon, sensitivity=1.0).probabilities(vector)
    counts = _recommend_counts(LaplaceMechanism(2.0 * epsilon, sensitivity=1.0), vector, seed)
    observed = np.append(counts[support], counts[~support].sum())
    expected = np.append(exact[support], exact[~support].sum())
    assert g_test_pvalue(observed, expected) < ALPHA
