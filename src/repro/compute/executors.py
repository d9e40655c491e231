"""Pluggable chunk executors: serial, threaded, and multiprocess.

An executor runs one picklable chunk function over the chunks of a
:class:`~repro.compute.plan.ComputePlan` and returns the results in chunk
order. The contract every executor honors:

* **order** — results come back indexed like the input chunks, whatever
  order workers finish in;
* **determinism** — the chunk function receives everything it needs
  (including any per-target RNG streams) as arguments, so the same inputs
  produce bit-identical outputs on every executor;
* **isolation** — chunk functions must not mutate shared state. Stateful
  work (cache fills, budget charges, ledger rows) stays with the
  caller, which applies chunk results on its own thread.

``shared`` carries the bulky per-call context (graph, utility, mechanism
grid) once per worker instead of once per chunk: serial and thread
executors pass it by reference, while :class:`ProcessExecutor` ships it
through the pool initializer so each worker deserializes it a single time
no matter how many chunks that ``map`` call processes. Before shipping,
the context passes through :func:`~repro.compute.shipping.encode_shared`:
objects backed by a named shared segment (a
:class:`~repro.graphs.shared.SharedSocialGraph`) travel as descriptors of
a few hundred bytes and workers re-attach by name — the zero-copy path —
while plain heap objects pickle exactly as before.

By default pools are created per ``map`` call, by design rather than as
an oversight: workers must never cache state between calls, because the
shared context can change meaning across calls — the serving layer's
graph mutates between batches, and a worker holding a stale deserialized
graph would silently serve stale utilities. The price is pool start-up
(~tens of ms for threads, ~100-200 ms for processes) per call, so the
per-call process executor suits long chunked runs (the experiment
engine, the sweeps, big batches) rather than small request batches; the
service defaults to :class:`SerialExecutor` for exactly that reason.

``ProcessExecutor(persistent=True)`` opts into a pool reused across
``map`` calls — spun up lazily on first use, shut down after
``idle_timeout`` seconds without work (or by ``close()``). Staleness is
solved structurally instead of by pool teardown: the shared context is
shipped *per call* (keyed by a per-call token, decoded once per worker
per call and memoized in a small bounded cache), never baked into worker
state at pool creation. Shared-backed graphs make the per-call shipping
cheap — a descriptor per call — which is exactly the regime persistent
pools are for; heavy heap contexts re-pickle per call and are better
served by the per-call default.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from ..errors import ComputeError
from .shipping import decode_shared, encode_shared

#: Registry names accepted by :func:`make_executor`.
EXECUTOR_NAMES = ("serial", "thread", "process")


@runtime_checkable
class Executor(Protocol):
    """Minimal protocol the compute layer requires of an executor."""

    #: Registry-style identifier (used in benchmark output and configs).
    name: str
    #: Worker count the executor fans out to (1 for serial).
    workers: int

    def map(
        self,
        fn: "Callable[[Any, Any], Any]",
        items: "Iterable[Any]",
        shared: Any = None,
    ) -> "list[Any]":
        """Run ``fn(shared, item)`` for every item; results in item order."""
        ...

    # Executors MAY additionally offer ``acquire_lease``/``release_lease``
    # (pin pooled worker state open for a long-lived host). The methods
    # are deliberately not part of the runtime-checkable protocol — the
    # edge calls them through :func:`acquire_executor_lease`, which
    # no-ops for executors without pooled state.


class _StatelessLeaseMixin:
    """Lease API for executors with no pooled state to pin.

    Long-lived hosts (the HTTP edge) hold a lease on whatever executor
    they were configured with; only :class:`ProcessExecutor`'s
    persistent pool has warm state worth pinning, but the calls must be
    uniformly available so lifecycle code never special-cases.
    """

    def acquire_lease(self) -> None:
        return None

    def release_lease(self) -> None:
        return None

    def lease(self):
        return _ExecutorLease(self)


class SerialExecutor(_StatelessLeaseMixin):
    """Run every chunk inline on the calling thread — the reference path."""

    name = "serial"
    workers = 1

    def map(
        self,
        fn: "Callable[[Any, Any], Any]",
        items: "Iterable[Any]",
        shared: Any = None,
    ) -> "list[Any]":
        return [fn(shared, item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def _positive_workers(workers: int) -> int:
    workers = int(workers)
    if workers < 1:
        raise ComputeError(f"workers must be >= 1, got {workers}")
    return workers


class ThreadExecutor(_StatelessLeaseMixin):
    """Fan chunks out to a thread pool.

    Threads share the caller's address space, so ``shared`` costs nothing
    to distribute and NumPy/SciPy kernels that release the GIL overlap.
    Pure-Python stages serialize on the GIL; use :class:`ProcessExecutor`
    when those dominate.
    """

    name = "thread"

    def __init__(self, workers: int = 4) -> None:
        self.workers = _positive_workers(workers)

    def map(
        self,
        fn: "Callable[[Any, Any], Any]",
        items: "Iterable[Any]",
        shared: Any = None,
    ) -> "list[Any]":
        items = list(items)
        if len(items) <= 1:
            return [fn(shared, item) for item in items]
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(self.workers, len(items))
        ) as pool:
            return list(pool.map(lambda item: fn(shared, item), items))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadExecutor(workers={self.workers})"


# Per-process slot for the shared context a ProcessExecutor pool ships via
# its initializer. Module-level on purpose: child processes import this
# module and look the context up here, one deserialization per worker.
_PROCESS_SHARED: Any = None


def _install_shared(shared: Any) -> None:
    global _PROCESS_SHARED
    _PROCESS_SHARED = decode_shared(shared)


def _run_with_shared(fn: "Callable[[Any, Any], Any]", item: Any) -> Any:
    return fn(_PROCESS_SHARED, item)


#: Worker-side cache of decoded per-call contexts for persistent pools,
#: keyed by the call token. Bounded: a long-lived pool must not pin every
#: context it ever served.
_DECODED_CONTEXTS: "OrderedDict[str, Any]" = OrderedDict()
_DECODED_CONTEXTS_LIMIT = 4


def _run_with_keyed_shared(
    packed: "tuple[str, Any, Callable[[Any, Any], Any]]", item: Any
) -> Any:
    """Persistent-pool task body: decode-once-per-call-per-worker, then run."""
    key, encoded, fn = packed
    try:
        shared = _DECODED_CONTEXTS[key]
        _DECODED_CONTEXTS.move_to_end(key)
    except KeyError:
        shared = decode_shared(encoded)
        _DECODED_CONTEXTS[key] = shared
        while len(_DECODED_CONTEXTS) > _DECODED_CONTEXTS_LIMIT:
            _DECODED_CONTEXTS.popitem(last=False)
    return fn(shared, item)


_CALL_TOKENS = itertools.count()


class ProcessExecutor:
    """Fan chunks out to worker processes.

    Sidesteps the GIL entirely, so pure-Python kernel stages scale too.
    ``fn`` must be a module-level function and every argument (shared
    context, chunk payloads, results) must be picklable; the repo's graph,
    utility, mechanism, and generator objects all are. Shared-backed
    graphs in the context travel as attach-by-name descriptors (see
    :mod:`repro.compute.shipping`), everything else pickles.

    Two pool disciplines:

    * ``persistent=False`` (default): a fresh pool per ``map`` call; the
      context ships once per worker via the pool initializer. Suits long
      chunked runs (see the module docstring).
    * ``persistent=True``: one pool reused across calls, created lazily
      on first use and shut down after ``idle_timeout`` seconds without
      work (``None`` = only on :meth:`close`). The context ships with
      each task under a per-call token; workers decode it once per call
      and serve the remaining tasks of that call from a bounded cache.
      Pair it with shared-backed graphs so the per-call shipping is a
      descriptor, not a graph pickle.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 4,
        persistent: bool = False,
        idle_timeout: "float | None" = None,
    ) -> None:
        self.workers = _positive_workers(workers)
        self.persistent = bool(persistent)
        if idle_timeout is not None and idle_timeout <= 0:
            raise ComputeError(
                f"idle_timeout must be positive (or None), got {idle_timeout}"
            )
        if idle_timeout is not None and not self.persistent:
            raise ComputeError("idle_timeout requires persistent=True")
        self.idle_timeout = idle_timeout
        self._pool: "concurrent.futures.ProcessPoolExecutor | None" = None
        self._idle_timer: "threading.Timer | None" = None
        self._active = 0
        self._leases = 0
        self._lock = threading.Lock()

    def map(
        self,
        fn: "Callable[[Any, Any], Any]",
        items: "Iterable[Any]",
        shared: Any = None,
    ) -> "list[Any]":
        items = list(items)
        if len(items) <= 1:
            return [fn(shared, item) for item in items]
        encoded = encode_shared(shared)
        if not self.persistent:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.workers, len(items)),
                initializer=_install_shared,
                initargs=(encoded,),
            ) as pool:
                return list(pool.map(_run_with_shared, [fn] * len(items), items))
        pool = self._ensure_pool()
        token = f"{os.getpid()}:{next(_CALL_TOKENS)}"
        packed = (token, encoded, fn)
        try:
            return list(pool.map(_run_with_keyed_shared, [packed] * len(items), items))
        finally:
            self._release_pool()

    # ------------------------------------------------------------------
    # Persistent-pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            self._active += 1
            return self._pool

    def _release_pool(self) -> None:
        with self._lock:
            self._active -= 1
            self._maybe_arm_idle_timer_locked()

    def _maybe_arm_idle_timer_locked(self) -> None:
        """(Re)arm the idle timer — only when nothing pins the pool.

        Callers hold ``self._lock``. A held lease suppresses the timer
        entirely: a long-lived server that pinned the pool must never
        race its own keepalive against the countdown.
        """
        if self._active > 0 or self._leases > 0 or self.idle_timeout is None:
            return
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        timer = threading.Timer(self.idle_timeout, self._idle_close)
        timer.daemon = True
        self._idle_timer = timer
        timer.start()

    def _idle_close(self) -> None:
        """Timer body: shut down only if no ``map`` or lease claimed the pool since."""
        with self._lock:
            if self._active > 0 or self._leases > 0:
                return
            self._idle_timer = None
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Leases: pinning the pool for a long-lived holder
    # ------------------------------------------------------------------
    def acquire_lease(self) -> None:
        """Pin the persistent pool: while any lease is held, the idle
        timer never fires and the pool survives arbitrarily long gaps
        between ``map`` calls. The long-lived holder (the HTTP edge
        server, for its whole lifetime) acquires once at startup instead
        of racing the idle countdown on every request lull. No-op for
        per-call pools, which have no lifetime to pin."""
        if not self.persistent:
            return
        with self._lock:
            self._leases += 1
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None

    def release_lease(self) -> None:
        """Release one :meth:`acquire_lease` pin; the last release re-arms
        the idle timer (the drain path hands the pool back to its normal
        lifecycle)."""
        if not self.persistent:
            return
        with self._lock:
            if self._leases <= 0:
                raise ComputeError("release_lease without a matching acquire_lease")
            self._leases -= 1
            self._maybe_arm_idle_timer_locked()

    def lease(self):
        """Context manager form of :meth:`acquire_lease`/:meth:`release_lease`."""
        return _ExecutorLease(self)

    def close(self) -> None:
        """Shut the persistent pool down (no-op for per-call pools)."""
        with self._lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = ", persistent=True" if self.persistent else ""
        return f"ProcessExecutor(workers={self.workers}{mode})"


class _ExecutorLease:
    """Context manager pairing ``acquire_lease`` with ``release_lease``."""

    __slots__ = ("_executor",)

    def __init__(self, executor: "ProcessExecutor") -> None:
        self._executor = executor

    def __enter__(self) -> "ProcessExecutor":
        self._executor.acquire_lease()
        return self._executor

    def __exit__(self, *exc_info) -> None:
        self._executor.release_lease()


def acquire_executor_lease(executor: Executor) -> None:
    """Pin ``executor``'s pooled state open, if it has any to pin.

    Duck-typed executors that predate the lease API are fine: absence of
    ``acquire_lease`` means there is no pooled state worth pinning, so
    this silently no-ops instead of demanding the method.
    """
    acquire = getattr(executor, "acquire_lease", None)
    if acquire is not None:
        acquire()


def release_executor_lease(executor: Executor) -> None:
    """Release one :func:`acquire_executor_lease` pin (no-op if leaseless)."""
    release = getattr(executor, "release_lease", None)
    if release is not None:
        release()


def make_executor(
    spec: "Executor | str | None" = None, workers: "int | None" = None
) -> Executor:
    """Resolve an executor from an instance, registry name, or worker count.

    ``None`` with ``workers`` in (None, 1) gives the serial executor;
    ``None`` with ``workers > 1`` gives a :class:`ProcessExecutor` (the
    only one that parallelizes every stage). A string picks by name from
    :data:`EXECUTOR_NAMES`; an existing executor instance passes through
    (``workers`` must then be absent or agree with the instance).
    """
    if spec is None:
        if workers is None or workers == 1:
            return SerialExecutor()
        return ProcessExecutor(workers=workers)
    if isinstance(spec, str):
        if spec not in EXECUTOR_NAMES:
            raise ComputeError(
                f"unknown executor {spec!r}; known: {', '.join(EXECUTOR_NAMES)}"
            )
        if spec == "serial":
            if workers not in (None, 1):
                raise ComputeError(
                    f"serial executor runs one worker, got workers={workers}"
                )
            return SerialExecutor()
        cls = ThreadExecutor if spec == "thread" else ProcessExecutor
        return cls(workers=4 if workers is None else workers)
    if isinstance(spec, Executor):
        if workers is not None and workers != spec.workers:
            raise ComputeError(
                f"executor {spec.name!r} already has workers={spec.workers}; "
                f"cannot override with workers={workers}"
            )
        return spec
    raise ComputeError(f"cannot build an executor from {spec!r}")
