"""Paper-scale reproduction run.

Runs every figure driver at the paper's sizes — each replica at scale 1.0,
every sampled target (10% of Wiki-vote, 1% of Twitter) — and stores the
results under ``benchmarks/results/paper_scale/``. Figures 1(a), 1(b),
2(a) and 2(b) also evaluate and print the exact Laplace accuracy beside
the Exponential one (Section 7.2's comparison); 2(c) plots what the paper
plots. Each job reports its wall time, the seconds spent building
replicas, and the share spent in the Laplace accuracy kernel;
EXPERIMENTS.md quotes these numbers.

Run:  python scripts/paper_scale_study.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import repro.datasets
from repro.experiments.figures import figure_1a, figure_1b, figure_2a, figure_2b, figure_2c
from repro.experiments.reporting import render_figure_table
from repro.mechanisms.laplace import LaplaceMechanism

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results" / "paper_scale"

#: Every job runs at the paper's size: full replica, every sampled target.
PAPER_SIZE = {"scale": 1.0, "max_targets": None}


class _Clock:
    """Accumulates the wall time spent in ``owner.name`` while active."""

    def __init__(self, owner, name: str) -> None:
        self.seconds = 0.0
        self._owner, self._name = owner, name
        self._wrapped = getattr(owner, name)

    def __enter__(self) -> "_Clock":
        clock, wrapped = self, self._wrapped

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return wrapped(*args, **kwargs)
            finally:
                clock.seconds += time.perf_counter() - started

        setattr(self._owner, self._name, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self._owner, self._name, self._wrapped)


def run_all() -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    jobs = [
        ("figure_1a", lambda: figure_1a(include_laplace=True, **PAPER_SIZE)),
        ("figure_1b", lambda: figure_1b(include_laplace=True, **PAPER_SIZE)),
        ("figure_2a", lambda: figure_2a(include_laplace=True, **PAPER_SIZE)),
        ("figure_2b", lambda: figure_2b(include_laplace=True, **PAPER_SIZE)),
        ("figure_2c", lambda: figure_2c(**PAPER_SIZE)),
    ]
    for name, job in jobs:
        print(f"[{name}] running ...", flush=True)
        started = time.perf_counter()
        # Every replica (wiki_vote, twitter) is built by this one function.
        with _Clock(repro.datasets, "build_replica") as builds, _Clock(
            LaplaceMechanism, "support_accuracies"
        ) as laplace:
            result = job()
        elapsed = time.perf_counter() - started
        result.save_json(RESULTS / f"{name}.json")
        result.save_csv(RESULTS / f"{name}.csv")
        print(
            f"[{name}] done in {elapsed:.1f}s; replica builds "
            f"{builds.seconds:.1f}s ({100.0 * builds.seconds / elapsed:.0f}%); "
            f"Laplace accuracy kernel "
            f"{laplace.seconds:.1f}s ({100.0 * laplace.seconds / elapsed:.0f}%)",
            flush=True,
        )
        print(render_figure_table(result), flush=True)
        print(flush=True)


if __name__ == "__main__":
    sys.exit(run_all())
