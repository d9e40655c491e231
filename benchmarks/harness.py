"""Shared measure/assert/write plumbing for the ``bench_*.py`` scripts.

Every benchmark in this directory has the same operational skeleton:
correctness gates that must hold *before* anything is timed, best-of-R
wall-clock measurement, a JSON artifact CI uploads, and a final
speedup-vs-gate verdict that decides the exit code. Each script used to
carry its own copy of that skeleton; this module is the single home so
the conventions cannot drift:

* gates abort via ``SystemExit("FAIL: ...")`` — loud, greppable, and
  exit-code 1 under CI without a traceback wall (:func:`require`);
* timings are **best-of-R minima** (:func:`best_of`): the minimum is the
  least-noise estimator of a deterministic pipeline's cost on a shared
  machine, and R is small because benchmarks run in CI;
* artifacts are JSON, ``indent=2``, sorted keys, trailing newline
  (:func:`write_artifact`) — byte-stable across runs up to the measured
  numbers, so committed artifacts diff cleanly — and each records the
  host it was measured on (usable CPUs, Python and NumPy versions), so a
  number is never read without its hardware;
* speedup gates print one ``FAIL:``/``OK:`` line and fold into the exit
  code (:func:`finish`), and the gate *values* are recorded in the
  artifact itself (``gates`` key) so the CI perf-trajectory check can
  re-verify committed artifacts without re-running the benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np


def require(condition: bool, message: str) -> None:
    """Abort the benchmark with ``FAIL: message`` unless ``condition``.

    For correctness gates that must pass before timing starts — a
    benchmark of a wrong pipeline is worse than no benchmark.
    """
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def timed(fn, *args, **kwargs) -> float:
    """Wall-clock seconds of one ``fn(*args, **kwargs)`` call."""
    started = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - started


def best_of(repeats: int, fn, *args, **kwargs) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls (see module docs)."""
    if repeats < 1:
        raise SystemExit(f"FAIL: repeats must be >= 1, got {repeats}")
    return min(timed(fn, *args, **kwargs) for _ in range(repeats))


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def host_info() -> dict:
    """Usable CPU count and interpreter/NumPy versions of this process."""
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_artifact(path: str, result: dict) -> None:
    """Write the result JSON in the repo's canonical artifact format,
    stamped with :func:`host_info` under ``host``."""
    result["host"] = host_info()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {path}")


def finish(result: dict, output: str, gates: "list[tuple[str, float, str]]") -> int:
    """Record gates in the artifact, write it, and return the exit code.

    ``gates`` is a list of ``(field, minimum, description)``: each
    ``result[field]`` must be ``>= minimum``. The thresholds land in
    ``result["gates"]`` as ``{"min_<field>": minimum}`` *before* the
    artifact is written — the committed JSON then carries its own pass
    criteria, which is what ``scripts/check_bench_trajectory.py`` audits.
    One ``OK:``/``FAIL:`` line prints per gate; any failure makes the
    exit code 1 (after the artifact is written, so a failing run still
    leaves evidence).
    """
    recorded = result.setdefault("gates", {})
    for field, minimum, _ in gates:
        recorded[f"min_{field}"] = minimum
    write_artifact(output, result)
    failed = False
    for field, minimum, description in gates:
        value = result[field]
        if value >= minimum:
            print(f"OK: {description} ({value:.2f} >= {minimum:g})")
        else:
            print(f"FAIL: {description} ({value:.2f} < {minimum:g})")
            failed = True
    return 1 if failed else 0
