"""Experiment-engine workload: Section 7 evaluation on the Twitter replica.

``engine_twitter`` runs the paper's measurement core through
:func:`repro.accuracy.batch.evaluate_targets_batched` on the full-size
Twitter replica (96,403 nodes, directed): common-neighbours utilities,
the exponential mechanism's exact expected accuracy at epsilon 0.5 and
1 (Figure 1(b)'s grid), and the Corollary 1 accuracy bound on a grid of
epsilons. Each call evaluates the next ``TARGETS_PER_CALL`` targets of a
seed-shuffled sample of the replica's nodes, cycling through the sample
so a faster engine never runs out of targets; one operation is one call
and items are targets.

Checks: the first call must equal the sequential reference evaluator
(:func:`repro.accuracy.evaluator.evaluate_targets`) exactly, and every
evaluation must report accuracies in [0, 1] that do not exceed the
Corollary 1 bound at the same epsilon.
"""

from __future__ import annotations

import inspect
import itertools
import time

import numpy as np

import common

TWITTER_SCALE = 1.0
#: Fewer than ``common.SETUP_REPEATS``: one set-up builds the full
#: replica, about 2.5 s.
SETUP_REPEATS = 3
#: Small enough for ~50 calls a second, so the kept one-second windows
#: hold the 100+ calls a 90th percentile needs.
TARGETS_PER_CALL = 6
MECHANISM_EPSILONS = (0.5, 1.0)
BOUND_EPSILONS = (0.1, 0.5, 1.0, 2.0)
#: Slack for comparing an exact accuracy with its analytic bound.
TOLERANCE = 1e-9

#: ``evaluate_targets_batched`` stage -> per-layer metric.
STAGE_LAYERS = {
    "utilities": "utility_kernel_pct",
    "mask": "candidates_pct",
    "filter": "candidates_pct",
    "vectors": "candidates_pct",
    "accuracies": "accuracy_pct",
    "bounds": "bounds_pct",
}
#: Stages that belong to no layer above; their time is in ``engine_other_pct``.
OTHER_STAGES = {"assemble"}


def _build():
    from repro import CommonNeighbors, ExponentialMechanism
    from repro.datasets import twitter

    graph = twitter(scale=TWITTER_SCALE)
    graph.adjacency_matrix()  # the CSR is built once per graph, not per call
    utility = CommonNeighbors()
    sensitivity = utility.sensitivity(graph, 0)
    mechanisms = {
        f"exponential@{epsilon:g}": ExponentialMechanism(epsilon, sensitivity=sensitivity)
        for epsilon in MECHANISM_EPSILONS
    }
    return graph, utility, mechanisms


def _check(evaluations, targets, problems: "list[str]") -> int:
    """Validate one call's evaluations; return how many were bad."""
    bad = 0
    asked = set(int(t) for t in targets)
    for evaluation in evaluations:
        for epsilon in MECHANISM_EPSILONS:
            accuracy = evaluation.accuracies[f"exponential@{epsilon:g}"]
            bound = evaluation.theoretical_bounds[epsilon]
            if (
                evaluation.target not in asked
                or not -TOLERANCE <= accuracy <= 1 + TOLERANCE
                or accuracy > bound + TOLERANCE
            ):
                bad += 1
                if len(problems) < 20:
                    problems.append(
                        f"target {evaluation.target}: accuracy {accuracy} "
                        f"vs bound {bound} at epsilon {epsilon}"
                    )
                break
    return bad


def run(seed: int, seconds: float, trace: bool) -> common.Outcome:
    from repro.accuracy.batch import evaluate_targets_batched
    from repro.accuracy.evaluator import evaluate_targets, sample_targets

    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        graph, utility, mechanisms = _build()
        setups.append(time.perf_counter() - started)

    pool = sample_targets(graph, fraction=1.0, seed=seed)
    np.random.default_rng(seed).shuffle(pool)
    chunks = itertools.cycle([
        pool[start:start + TARGETS_PER_CALL]
        for start in range(0, len(pool) - TARGETS_PER_CALL + 1, TARGETS_PER_CALL)
    ])

    def evaluate(targets, call: int, timings=None):
        kwargs = {} if timings is None else {"timings": timings}
        return evaluate_targets_batched(
            graph, utility, targets, mechanisms,
            bound_epsilons=BOUND_EPSILONS, seed=seed + call, **kwargs,
        )

    problems: "list[str]" = []
    first = pool[:TARGETS_PER_CALL]
    if evaluate(first, 0) != evaluate_targets(
        graph, utility, first, mechanisms, bound_epsilons=BOUND_EPSILONS, seed=seed
    ):
        problems.append("batched engine differs from the sequential reference")

    untraced: "list[str]" = []
    timings = None
    if trace:
        if "timings" in inspect.signature(evaluate_targets_batched).parameters:
            timings = {}
        else:
            untraced.append("evaluate_targets_batched(timings=)")
    prober = common.Prober()
    ops: "list[tuple[float, float, int]]" = []
    attempted = failed = 0
    measure_from = time.perf_counter() + common.WARMUP_SECONDS
    stop_at = measure_from + seconds
    for call, targets in enumerate(chunks):
        prober.maybe(measure_from)
        started = time.perf_counter()
        if started >= stop_at:
            break
        evaluations = evaluate(targets, call, timings)
        ended = time.perf_counter()
        ops.append((ended - measure_from, ended - started, len(targets)))
        attempted += len(targets)
        failed += _check(evaluations, targets, problems)

    layers: "dict[str, float]" = {}
    if trace:
        total = sum(latency for _, latency, _ in ops)
        staged = 0.0
        for stage, seconds_in in (timings or {}).items():
            name = STAGE_LAYERS.get(stage)
            if name is None:
                if stage not in OTHER_STAGES:
                    untraced.append(
                        f"evaluate_targets_batched stage {stage!r} (in engine_other_pct)"
                    )
                continue
            layers[name] = layers.get(name, 0.0) + common.share(seconds_in, total)
            staged += seconds_in
        if timings is not None:
            untraced.extend(
                f"evaluate_targets_batched stage {stage!r}"
                for stage in STAGE_LAYERS if stage not in timings
            )
        layers["engine_other_pct"] = common.share(total - staged, total)
        layers["engine_calls"] = float(len(ops))
        layers["batch_size_mean"] = attempted / len(ops) if ops else 0.0
    return common.Outcome(
        ops=ops,
        probes=prober.probes,
        setups=setups,
        attempted=attempted,
        failed=failed,
        problems=problems,
        layers=layers,
        untraced=untraced,
    )
