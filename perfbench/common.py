"""Shared pieces of the benchmark: the run outcome, the user popularity
model, the machine-speed probe and the layer timers.

A trace run (``--trace 1``) replaces a layer's entry point — a module
function, a class's method or one object's method — with a wrapper that
adds each call's wall-clock time to a named layer. The program is not
edited. An entry point that does not exist (a later version renamed or
removed it) is not wrapped: its layer reads zero and the run names it on
stderr. Untraced runs install no wrapper, so the end-to-end numbers
carry no tracing overhead.
"""

from __future__ import annotations

import math
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for write-ahead logs and memory-mapped graphs; inside
#: the checkout, removed at the end of every run.
WORK = Path(__file__).resolve().parent / "_work"

#: Complete set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Untimed load before the timed window: lets connections, caches and
#: allocator pools settle.
WARMUP_SECONDS = 1.0
#: Popularity skew of the program's own request generators
#: (``synthetic_workload`` and ``synthetic_event_stream``).
ZIPF_EXPONENT = 1.1
#: Seconds between machine-speed probes, and the probe loop's length
#: (about half a millisecond of pure Python).
PROBE_INTERVAL = 0.1
PROBE_LOOPS = 20_000


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``.

    Exits with status 2 when the sources are missing or ``repro``
    resolves anywhere else (an installed copy must never be measured).
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(
            f"perfbench: repro imported from {repro.__file__}, not {package}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def work_dir(name: str) -> Path:
    """A fresh scratch directory for one run; see :func:`remove_work_dir`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # still holds another run's directory, or already gone


def popularity(num_nodes: int, seed: int) -> "tuple[np.ndarray, np.ndarray]":
    """Users by popularity rank, and the cumulative probability of each rank.

    The program's request model, written out here so that a change to the
    program cannot change the benchmark's inputs: a seed-drawn permutation
    ranks every user, and rank ``r`` is asked for with probability
    proportional to ``r ** -ZIPF_EXPONENT``.
    """
    weights = np.arange(1, num_nodes + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    users = np.random.default_rng(seed).permutation(num_nodes)
    return users, np.cumsum(weights) / weights.sum()


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop touches no program state and allocates no containers, so
    its time follows how fast the machine runs this process at the
    moment, not what the program is doing.
    """
    started = time.perf_counter()
    total = 0
    for step in range(PROBE_LOOPS):
        total += step
    return time.perf_counter() - started


class Prober:
    """Runs :func:`probe` at most once per ``PROBE_INTERVAL`` seconds.

    ``probes`` holds ``(at, seconds)`` per probe, ``at`` in seconds since
    the ``origin`` passed to :meth:`maybe` (the timed window's opening).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.probes: "list[tuple[float, float]]" = []
        self._clock = clock
        self._due = -math.inf

    def maybe(self, origin: float) -> None:
        now = self._clock()
        if now >= self._due:
            self.probes.append((now - origin, probe()))
            self._due = now + PROBE_INTERVAL


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``ops`` holds ``(end, latency, items)`` per completed operation:
    completion time in seconds since the timed window opened (negative
    during warm-up), latency in seconds, and the items it finished.
    ``probes`` holds the machine-speed probes, ``(at, seconds)`` on the
    same clock. ``attempted``/``failed`` count items over the whole load
    phase; ``layers`` holds the per-layer metrics of a trace run and
    ``untraced`` the entry points it could not wrap or read.
    """

    ops: "list[tuple[float, float, int]]"
    probes: "list[tuple[float, float]]"
    setups: "list[float]"
    attempted: int
    failed: int
    problems: "list[str]" = field(default_factory=list)
    layers: "dict[str, float]" = field(default_factory=dict)
    untraced: "list[str]" = field(default_factory=list)


class LayerClock:
    """Wall-clock seconds and call counts accumulated per layer.

    Wrappers sharing a ``group`` do not nest: a call made while another
    call of the same group is running is not timed again, so a sync
    issued inside a commit counts once.

    ``untraced`` names every entry point that could not be wrapped or
    read; the run prints them, so a layer that reads 0 because it was not
    traced is told apart from one that took no time.
    """

    def __init__(self) -> None:
        self.seconds: "defaultdict[str, float]" = defaultdict(float)
        self.calls: "defaultdict[str, int]" = defaultdict(int)
        self.untraced: "list[str]" = []
        self._active: "defaultdict[str, int]" = defaultdict(int)

    def wrap(self, owner, attr: str, layer: str, group: "str | None" = None) -> None:
        """Time every call of ``owner.attr`` into ``layer``."""
        inner = getattr(owner, attr, None)
        if not callable(inner):
            self.untraced.append(f"{_name(owner)}.{attr}")
            return
        group = group or layer
        seconds, calls, active = self.seconds, self.calls, self._active
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if active[group]:
                return inner(*args, **kwargs)
            active[group] += 1
            started = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                seconds[layer] += clock() - started
                calls[layer] += 1
                active[group] -= 1

        setattr(owner, attr, timed)


def _name(owner) -> str:
    return getattr(owner, "__name__", None) or type(owner).__name__


#: Layers timed inside one engine call by :func:`wrap_engine`.
ENGINE_LAYERS = ("utility_kernel", "sampler", "cache_patch", "accounting")


def wrap_engine(clock: LayerClock, service) -> None:
    """Time the layers inside a ``RecommendationService`` batch.

    ``service`` is the ``RecommendationService`` itself (a streaming
    service's is its ``.service``). The utility-kernel and sampler chunk
    tasks are module globals looked up on every batch, and the lazy
    reconcile-and-patch of stale cached rows is a ``UtilityCache``
    method, so replacing those reaches every call the serial executor
    makes. Accounting is the budget check and charge, the per-request
    record, the flush of buffered ledger rows and the sliding-window
    accountants.
    """
    from repro.serving import cache as cache_module
    from repro.serving import service as service_module
    from repro.streaming import engine as streaming_module

    clock.wrap(service_module, "_vectors_chunk", "utility_kernel")
    clock.wrap(service_module, "_sample_chunk", "sampler")
    clock.wrap(cache_module.UtilityCache, "_reconcile_row", "cache_patch")
    for owner, attr in (
        (service.budgets, "accountant_for"),
        (service.budgets, "charge"),
        (service, "_record"),
        (service, "_flush_telemetry"),
        (streaming_module.SlidingWindowAccountant, "can_spend"),
        (streaming_module.SlidingWindowAccountant, "spend"),
    ):
        clock.wrap(owner, attr, "accounting")


def cache_layers(cache, clock: LayerClock) -> "dict[str, float]":
    """Hit share, misses and patched rows of a service's utility cache."""
    snapshot = getattr(cache, "snapshot", None)
    if not callable(snapshot):
        clock.untraced.append(f"{_name(cache)}.snapshot")
        return {}
    stats = snapshot()
    keys = ("hits", "misses", "patched_rows")
    clock.untraced.extend(
        f"{_name(cache)}.snapshot()[{key!r}]" for key in keys if key not in stats
    )
    hits, misses, patched = (float(stats.get(key, 0)) for key in keys)
    return {
        "cache_hit_pct": share(hits, hits + misses),
        "cache_misses": misses,
        "patched_rows": patched,
    }


def share(part: float, whole: float) -> float:
    """``part`` as a percentage of ``whole`` (0 when ``whole`` is 0)."""
    return 100.0 * max(part, 0.0) / whole if whole > 0 else 0.0
