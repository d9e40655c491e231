"""The serve-while-mutating pipeline: mutations and queries on one clock.

:class:`StreamingService` wraps a
:class:`~repro.serving.service.RecommendationService` around a
:class:`~repro.streaming.overlay.MutableSocialGraph` and interleaves two
kinds of work:

* **mutation batches** — edge adds/removes applied through the overlay
  (O(1) per event, journaled for incremental invalidation), with
  optional automatic :meth:`~MutableSocialGraph.compact` once the delta
  grows past a threshold;
* **recommendation batches** — delegated to the wrapped service's
  vectorized hot path on the existing :mod:`repro.compute` kernels; the
  service's utility cache evicts only the rows the journal marks dirty,
  so cache hits survive churn.

Privacy-over-time gets a second accounting mode: the paper's companion
impossibility results for continual observation motivate bounding the
epsilon spent within any sliding window of the event clock, not just
over a lifetime. With ``window`` set, a :class:`SlidingWindowAccountant`
per user refuses releases that would push the trailing-window spend past
``window_budget``; expired spends return to the user, so a heavy
requester is throttled rather than permanently cut off. Lifetime budgets
(the wrapped service's) still apply underneath.

:func:`replay_stream` drives a service through a
:mod:`~repro.streaming.events` stream — flushing query batches whenever
a mutation arrives so graph state and answers interleave exactly as the
stream dictates — and returns a :class:`StreamReplaySummary`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import PrivacyParameterError, ServingError
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism, PrivateMechanism
from ..serving.records import RecommendationResponse
from ..serving.service import RecommendationService
from ..telemetry.ledger import KIND_WINDOW_CHARGE, KIND_WINDOW_EXPIRY
from ..telemetry.metrics import DEFAULT_SIZE_BUCKETS as _SIZE_BUCKETS
from ..utility.base import UtilityFunction
from .events import KIND_ADD, StreamEvent
from .overlay import MutableSocialGraph


class SlidingWindowAccountant:
    """Epsilon accounting over a trailing window of the event clock.

    Unlike the lifetime :class:`~repro.serving.budgets.BudgetManager`
    spend, entries *expire*: a release recorded at time
    ``t`` stops counting against the budget once the clock passes
    ``t + window``. ``budget`` therefore bounds the spend inside every
    window-length interval — the budget-over-time regime of continual
    observation — rather than the all-time total.

    Reads (:meth:`spent` / :meth:`remaining` / :meth:`can_spend`) are
    *pure*: they filter entries against the queried time without
    advancing any clock, so probing a far-future time can never expire a
    spend that an earlier-timestamped query should still be charged for.
    Only :meth:`spend` moves state; its accounting clock is monotone —
    an out-of-order release is recorded at the latest time already seen,
    which keeps every release sequence's windowed spend bounded by
    ``budget`` under the accounting clock.
    """

    def __init__(self, budget: float, window: float) -> None:
        if not budget > 0:
            raise PrivacyParameterError(f"budget must be positive, got {budget}")
        if not window > 0:
            raise PrivacyParameterError(f"window must be positive, got {window}")
        self.budget = float(budget)
        self.window = float(window)
        self._entries: deque[tuple[float, float]] = deque()  # (time, epsilon)
        self._clock = float("-inf")

    @property
    def retained_spent(self) -> float:
        """Epsilon summed over every physically retained entry.

        Unlike :meth:`spent` this takes no ``now`` and applies no window
        filter — it is exactly "charges recorded minus entries expired",
        the quantity the privacy ledger's net window spend must match
        (:meth:`repro.telemetry.ledger.PrivacyLedger.assert_consistent`).
        """
        return float(sum(epsilon for _, epsilon in self._entries))

    def spent(self, now: float) -> float:
        """Epsilon still counting against the window at time ``now``.

        Pure: counts every retained entry newer than ``now - window``
        (including entries recorded at later accounting times — for a
        stale ``now`` that is the conservative direction).
        """
        horizon = float(now) - self.window
        return float(
            sum(epsilon for time, epsilon in self._entries if time > horizon)
        )

    def remaining(self, now: float) -> float:
        """Window budget left at time ``now`` (pure)."""
        return self.budget - self.spent(now)

    def can_spend(self, epsilon: float, now: float) -> bool:
        """Whether a release of ``epsilon`` fits the window at ``now`` (pure)."""
        if epsilon < 0:
            raise PrivacyParameterError(f"epsilon must be non-negative, got {epsilon}")
        return epsilon <= self.remaining(now) + 1e-12

    def spend(self, epsilon: float, now: float) -> "list[tuple[float, float]]":
        """Record a release at ``now``; return the ``(time, epsilon)`` entries it expired.

        Raises when the window cannot cover the release. The entry is
        recorded at ``max(now, latest accounting time)`` — the accounting
        clock never runs backwards — and entries a full window older than
        that clock are physically dropped (they can no longer affect any
        admission: admission checks count them only for ``now`` values at
        least a window behind the clock, where the monotone recording
        time makes the check conservative anyway). The dropped entries
        are returned oldest first, because the ledger must journal every
        hand-back: there is no other observable trace of the drop.
        """
        if not self.can_spend(epsilon, now):
            raise PrivacyParameterError(
                f"release of epsilon={epsilon} exceeds remaining window budget "
                f"{self.remaining(now):.6f} (window={self.window}, budget={self.budget})"
            )
        self._clock = max(self._clock, float(now))
        self._entries.append((self._clock, float(epsilon)))
        horizon = self._clock - self.window
        expired = []
        while self._entries and self._entries[0][0] <= horizon:
            expired.append(self._entries.popleft())
        return expired


class StreamingService:
    """Serve recommendations while the graph mutates underneath.

    Parameters
    ----------
    graph:
        The live graph. A plain :class:`SocialGraph` is wrapped into a
        :class:`MutableSocialGraph` (copied); passing an overlay uses it
        directly, shared with the caller.
    utility, mechanism, epsilon, user_budget, budget_overrides,
    cache_max_entries, seed, chunk_size, dtype, incremental,
    patch_crossover:
        Forwarded to the wrapped
        :class:`~repro.serving.service.RecommendationService` (``dtype``
        selects the compute dtype of the batched dense stages and the
        utility cache's storage; float64 default is exact;
        ``incremental=None`` auto-enables delta patching here, since the
        overlay graph always journals typed deltas for decomposable
        utilities).
    window, window_budget:
        Enable sliding-window accounting: within any trailing ``window``
        of the event clock, each user spends at most ``window_budget``
        (default: ``user_budget``). ``window=None`` (default) keeps
        lifetime-only accounting.
    compact_every:
        Auto-compact the overlay once its delta reaches this many edges
        (``None`` = only explicit :meth:`compact` calls).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`, shared with the
        wrapped service (requests instrument there). The streaming layer
        adds mutation latency, dirty-ball sizes, compaction durations,
        window refusals, and ``window_charge``/``window_expiry`` ledger
        entries for every sliding-window spend and expiry.
    """

    def __init__(
        self,
        graph: "SocialGraph | MutableSocialGraph",
        utility: "UtilityFunction | str | None" = None,
        mechanism: "Mechanism | str" = "exponential",
        *,
        epsilon: float = 0.5,
        user_budget: float = 10.0,
        budget_overrides: "dict[int, float] | None" = None,
        cache_max_entries: "int | None" = None,
        seed: "int | np.random.Generator | None" = None,
        chunk_size: "int | None" = None,
        dtype=None,
        window: "float | None" = None,
        window_budget: "float | None" = None,
        compact_every: "int | None" = None,
        telemetry=None,
        incremental: "bool | None" = None,
        patch_crossover: "float | None" = None,
    ) -> None:
        if not isinstance(graph, MutableSocialGraph):
            graph = MutableSocialGraph.from_graph(graph)
        self.graph = graph
        self.service = RecommendationService(
            graph,
            utility,
            mechanism,
            epsilon=epsilon,
            user_budget=user_budget,
            budget_overrides=budget_overrides,
            cache_max_entries=cache_max_entries,
            seed=seed,
            chunk_size=chunk_size,
            dtype=dtype,
            telemetry=telemetry,
            incremental=incremental,
            **(
                {}
                if patch_crossover is None
                else {"patch_crossover": float(patch_crossover)}
            ),
        )
        if window is None and window_budget is not None:
            raise ServingError("window_budget requires window to be set")
        if window is not None and not window > 0:
            raise ServingError(f"window must be positive, got {window}")
        if window_budget is not None and not window_budget > 0:
            raise ServingError(f"window_budget must be positive, got {window_budget}")
        if compact_every is not None and compact_every < 1:
            raise ServingError(f"compact_every must be >= 1, got {compact_every}")
        self.window = None if window is None else float(window)
        self.window_budget = (
            float(user_budget if window_budget is None else window_budget)
            if window is not None
            else None
        )
        self.compact_every = compact_every
        self.telemetry = telemetry
        if telemetry is not None:
            # Handles resolved once; apply_edge_event runs per stream
            # event and a registry lookup per call is measurable there.
            registry = telemetry.registry
            self._mutations_counter = registry.counter("stream.mutations_applied")
            self._ball_histogram = registry.histogram(
                "stream.dirty_ball_size", buckets=_SIZE_BUCKETS
            )
            self._mutation_seconds = registry.histogram("stream.mutation_seconds")
        self.clock = 0.0
        self.mutations_applied = 0
        #: Mutation *events* seen (applied or tolerated no-ops) — the
        #: durable resume cursor: a recovered run must skip exactly this
        #: many of the stream's mutation events, changed or not.
        self.mutation_events_seen = 0
        self.compactions = 0
        self.wal = None  # attached via attach_wal (durability layer)
        self._window_accountants: dict[int, SlidingWindowAccountant] = {}

    # ------------------------------------------------------------------
    # Mutation side
    # ------------------------------------------------------------------
    def apply_edge_event(self, event: StreamEvent) -> bool:
        """Apply one mutation event; return whether the graph changed.

        Duplicate adds and missing removals are tolerated (the stream may
        be replayed against a graph that drifted), advancing the clock
        either way. Auto-compacts when the delta crosses
        ``compact_every``, and re-derives the serving mechanism's noise
        calibration after every applied mutation.
        """
        if not event.is_mutation:
            raise ServingError(f"not a mutation event: {event!r}")
        self.clock = max(self.clock, event.time)
        self.mutation_events_seen += 1
        if self.wal is not None:
            # Write-ahead: the event reaches the log before the in-memory
            # apply, so a crash between the two replays it on recovery
            # (try_add/try_remove make a duplicated apply a no-op).
            self.wal.log_edge(event.kind, event.time, event.u, event.v)
        started = time.perf_counter()
        if event.kind == KIND_ADD:
            changed = self.graph.try_add_edge(event.u, event.v)
        else:
            changed = self.graph.try_remove_edge(event.u, event.v)
        if changed:
            self.mutations_applied += 1
            self._recalibrate_sensitivity()
            if self.telemetry is not None:
                self._mutations_counter.inc()
                ball = self.graph.last_dirty_ball_size
                if ball is not None:
                    self._ball_histogram.observe(ball)
            if (
                self.compact_every is not None
                and self.graph.delta_size >= self.compact_every
            ):
                self.compact()
        if self.telemetry is not None:
            self._mutation_seconds.observe(time.perf_counter() - started)
        return changed

    def _recalibrate_sensitivity(self) -> None:
        """Re-derive Delta f and update the mechanism's noise calibration.

        The paper's Section 8 "changing sensitivity" issue, handled the
        same way :class:`~repro.extensions.dynamic.DynamicRecommender`
        handles it: degree-dependent utilities (weighted paths grows with
        d_max) must re-calibrate their noise as the graph evolves, or the
        audited epsilon silently understates the true privacy loss. The
        sensitivity read is one vectorized ``max`` over the overlay's
        live degree vector — for constant-sensitivity utilities (common
        neighbors) the update is a no-op float compare per mutation.

        The calibration is updated *in place*: every private mechanism
        reads ``sensitivity`` at sampling time and derives nothing else
        from it at construction, so assignment re-calibrates without
        discarding subclass state a rebuild would lose (e.g.
        :class:`~repro.mechanisms.laplace.LaplaceMechanism`'s
        Monte-Carlo ``trials``).

        Interaction with incremental caching: sensitivity depends only on
        the live graph (degrees), never on how a cached row was produced,
        and rows the cache *patches* are exact at the current version
        (bit-identical to recompute) — so a patched row sampled under the
        recalibrated noise is indistinguishable from a recomputed one.
        Nothing here needs to know which rows were patched.
        """
        mechanism = self.service.mechanism
        if not isinstance(mechanism, PrivateMechanism) or self.graph.num_nodes == 0:
            return
        sensitivity = float(self.service.utility.sensitivity(self.graph, 0))
        if sensitivity != mechanism.sensitivity:
            mechanism.sensitivity = sensitivity
            self.service._sensitivity = sensitivity

    def compact(self) -> None:
        """Fold the overlay delta into a fresh CSR base (new epoch)."""
        started = time.perf_counter()
        self.graph.compact()
        self.compactions += 1
        if self.telemetry is not None:
            registry = self.telemetry.registry
            registry.counter("stream.compactions").inc()
            registry.histogram("stream.compaction_seconds").observe(
                time.perf_counter() - started
            )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def attach_wal(self, wal) -> None:
        """Journal this service's events into a write-ahead log.

        From here on, every mutation event is logged write-ahead, every
        ledger row (lifetime charges, refusals, window charges and
        expiries) is staged into the log, and every
        :meth:`recommend_batch` seals its staged rows plus the post-batch
        engine state into one atomic commit record. Recovery attaches the
        reopened log only *after* installing snapshot state and replaying
        the tail, so nothing is double-journaled.
        """
        if self.wal is not None:
            raise ServingError(
                "streaming service already has a write-ahead log attached"
            )
        self.wal = wal
        self.service.attach_row_sink(wal.buffer_rows)

    def durable_state(self) -> dict:
        """JSON-able engine state sealed into every WAL commit record.

        Exactly the mutable scalars a bit-identical resume needs beyond
        what edge records and ledger rows already carry: the serving
        RNG's bit-generator state (so the next batch draws the same
        samples), the request counter (the ledger rows' clock), the
        stream clock, and the mutation-event cursor.
        """
        return {
            "rng": self.service._rng.bit_generator.state,
            "req": int(self.service._next_request_id),
            "clock": float(self.clock),
            "mutations_seen": int(self.mutation_events_seen),
        }

    def _wal_commit(self) -> None:
        # recommend_batch calls this after the wrapped service flushed its
        # buffered rows into the log's staging area; sealing them with the
        # post-batch state makes the whole batch atomic on disk — a torn
        # commit drops the batch entirely and resume re-executes it from
        # the previous commit's RNG state, bit-identically.
        if self.wal is not None:
            self.wal.commit(self.durable_state())

    @property
    def epoch(self) -> int:
        """The overlay's compaction epoch."""
        return self.graph.epoch

    @property
    def stamp(self) -> "tuple[int, int]":
        """The overlay's monotone ``(epoch, version)`` stamp."""
        return self.graph.stamp

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    def _window_accountant(self, user: int) -> SlidingWindowAccountant:
        accountant = self._window_accountants.get(user)
        if accountant is None:
            accountant = SlidingWindowAccountant(self.window_budget, self.window)
            self._window_accountants[user] = accountant
        return accountant

    def window_remaining(self, user: int, at: "float | None" = None) -> float:
        """The user's unspent window budget at time ``at`` (default: now).

        A pure probe: never-served users report the full window budget
        without allocating accountant state (so sweeping every user id
        from a monitoring loop costs nothing).
        """
        if self.window is None:
            raise ServingError("window accounting is not enabled")
        accountant = self._window_accountants.get(int(user))
        if accountant is None:
            return self.window_budget
        return accountant.remaining(self.clock if at is None else float(at))

    def recommend_batch(
        self,
        users: "list[int] | np.ndarray",
        at: "float | list[float] | None" = None,
    ) -> "list[RecommendationResponse]":
        """One recommendation per user at event time(s) ``at`` (default: now).

        ``at`` may be a single time for the whole batch or one
        non-decreasing time per request — batching requests must not
        shift their accounting clocks, or a query would be admitted
        against a window that had already expired spends it should still
        see (the replay driver always passes per-event times). The
        service clock itself never runs backwards: a timestamp earlier
        than a previously seen one is admitted and accounted *at the
        clock* (window entries older than the clock's trailing window
        are physically gone, so honoring a stale timestamp literally
        would overspend the window it names).

        Without a window this is exactly the wrapped service's batch
        endpoint. With one, users whose trailing-window spend cannot
        cover the release at their (clock-clamped) timestamp are refused
        up front (audited as rejections, spending nothing); the rest go
        through the normal pipeline — lifetime budgets and all — and
        only actually-served responses charge their window accountants.
        """
        users = [int(u) for u in users]
        if at is None:
            times = [self.clock] * len(users)
        elif np.ndim(at) == 0:
            times = [max(float(at), self.clock)] * len(users)
        else:
            times = [float(t) for t in at]
            if len(times) != len(users):
                raise ServingError(
                    f"got {len(times)} timestamps for {len(users)} users"
                )
            if any(b < a for a, b in zip(times, times[1:])):
                raise ServingError("per-request timestamps must be non-decreasing")
            times = [max(t, self.clock) for t in times]
        if times:
            self.clock = max(self.clock, times[-1])
        if self.window is None:
            responses = self.service.recommend_batch(users)
            self._wal_commit()
            return responses
        admitted: list[tuple[int, int, float]] = []  # (position, user, time)
        refused: list[tuple[int, int, float]] = []  # (position, user, cost)
        pending: dict[int, float] = {}  # same-batch duplicates accumulate
        for position, (user, now) in enumerate(zip(users, times)):
            cost = self.service.release_cost(user)
            already = pending.get(user, 0.0)
            if self._window_accountant(user).can_spend(already + cost, now):
                pending[user] = already + cost
                admitted.append((position, user, now))
            else:
                refused.append((position, user, cost))
        inner = self.service.recommend_batch([user for _, user, _ in admitted])
        responses: list[RecommendationResponse | None] = [None] * len(users)
        # Window expiries and charges become ready-typed ledger rows in the
        # wrapped service's buffer, behind the inner batch's rows: its
        # flush delivers them to the ledger and the row sink (the WAL)
        # alike. Expiries go in as they fire, charges after all of them,
        # refusals last. The stamp is hoisted: mutations only happen in
        # apply_edge_event, never mid-batch.
        rows = self.service.ledger_buffer
        charge_rows: "list[tuple]" = []
        expiries = 0
        if rows is not None:
            epoch, version = (int(part) for part in self.stamp)
        for (position, user, now), response in zip(admitted, inner):
            if response.served:
                expired = self._window_accountant(user).spend(response.epsilon_spent, now)
                expiries += len(expired)
                if rows is not None:
                    rows.extend(
                        (KIND_WINDOW_EXPIRY, user, epsilon, "", epoch, version,
                         expired_at, "window expiry", 0.0)
                        for expired_at, epsilon in expired
                    )
                    charge_rows.append(
                        (KIND_WINDOW_CHARGE, user, float(response.epsilon_spent),
                         response.mechanism, epoch, version, float(now), "", 0.0)
                    )
            responses[position] = response
        if rows is not None:
            rows.extend(charge_rows)
        if self.telemetry is not None:
            registry = self.telemetry.registry
            if expiries:
                registry.counter("stream.window_expiries").inc(expiries)
            if refused:
                registry.counter("stream.window_refusals").inc(len(refused))
        for position, user, cost in refused:
            responses[position] = self.service.record_rejection(user, needed=cost)
        self.service._flush_telemetry()
        self._wal_commit()
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Async-safe submission surface (the HTTP edge's entry points)
    # ------------------------------------------------------------------
    @property
    def submission_lock(self):
        """One lock for both sides: queries *and* mutations serialize on
        the wrapped service's submission lock, so an edge event submitted
        from one thread can never interleave mid-batch with a recommend
        batch submitted from another."""
        return self.service._submission_lock

    def submit_batch(
        self,
        users: "list[int] | np.ndarray",
        at: "float | list[float] | None" = None,
    ) -> "list[RecommendationResponse]":
        """Thread-serialized :meth:`recommend_batch` (see
        :meth:`RecommendationService.submit_batch`)."""
        with self.submission_lock:
            return self.recommend_batch(users, at=at)

    def submit_edge_event(self, event: StreamEvent) -> bool:
        """Thread-serialized :meth:`apply_edge_event`: the mutation takes
        the same lock as query batches, so it applies strictly between
        them — whole-batch interleaving is what keeps an edge-driven run
        replayable as a serial event sequence."""
        with self.submission_lock:
            return self.apply_edge_event(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache(self):
        """The wrapped service's utility cache (selective eviction lives there)."""
        return self.service.cache

    def collect_metrics(self):
        """The wrapped service's scrape plus streaming-layer gauges."""
        registry = self.service.collect_metrics()
        registry.gauge("stream.clock").set(self.clock)
        registry.gauge("stream.delta_size").set(self.graph.delta_size)
        registry.gauge("stream.epoch").set(self.epoch)
        return registry

    def verify_ledger(self) -> None:
        """Reconcile the ledger against lifetime *and* window accountants.

        Lifetime charges must match the wrapped service's budget manager
        and, when sliding-window accounting is on, each user's net window
        spend (charges minus expiries) must match what their
        :class:`SlidingWindowAccountant` physically retains. Raises
        :class:`~repro.errors.LedgerInconsistencyError` on any mismatch.
        """
        if self.telemetry is None:
            raise ServingError("service has no telemetry attached")
        self.telemetry.ledger.assert_consistent(
            budgets=self.service.budgets,
            window_accountants=self._window_accountants if self.window else None,
        )


@dataclass(frozen=True)
class StreamReplaySummary:
    """Aggregate statistics from one :func:`replay_stream` run.

    All counters cover *this replay only* (a service can replay several
    streams; earlier runs never leak into a later summary).
    ``num_mutations`` counts the stream's mutation events —
    ``num_mutations + num_queries == num_events`` always —
    while ``num_mutations_applied`` counts those that actually changed
    the graph (duplicate adds / missing removals are tolerated no-ops
    when replaying against a drifted graph).
    """

    num_events: int
    num_queries: int
    num_served: int
    num_rejected: int
    num_mutations: int
    num_mutations_applied: int
    num_compactions: int
    wall_seconds: float
    events_per_second: float
    cache_hit_rate: float
    total_epsilon_spent: float
    final_epoch: int
    final_version: int

    def render(self) -> str:
        """Human-readable multi-line summary for CLI output."""
        return "\n".join(
            [
                f"  events:          {self.num_events} "
                f"({self.num_mutations} mutations, {self.num_queries} queries)",
                f"  applied:         {self.num_mutations_applied} mutations "
                "changed the graph",
                f"  served:          {self.num_served}",
                f"  rejected:        {self.num_rejected} (budget exhausted)",
                f"  wall time:       {self.wall_seconds:.3f} s",
                f"  throughput:      {self.events_per_second:,.0f} events/sec",
                f"  cache hit rate:  {self.cache_hit_rate:.1%}",
                f"  epsilon spent:   {self.total_epsilon_spent:.2f} (all users)",
                f"  compactions:     {self.num_compactions}",
                f"  final stamp:     (epoch={self.final_epoch}, "
                f"version={self.final_version})",
            ]
        )


def replay_stream(
    service: StreamingService,
    events: "list[StreamEvent]",
    *,
    batch_size: int = 64,
    on_response=None,
) -> StreamReplaySummary:
    """Drive a :class:`StreamingService` through an event stream.

    Queries accumulate into batches of up to ``batch_size`` and flush
    through :meth:`StreamingService.recommend_batch` with their own
    per-event timestamps (so batching never shifts window-budget
    accounting); any mutation event flushes the pending batch *first*,
    so every query is answered from exactly the graph state the stream
    prescribes at its timestamp. Returns throughput / cache / budget
    statistics.

    ``on_response`` (optional) receives every
    :class:`~repro.serving.records.RecommendationResponse` in query
    order. This is how the bit-identity gates (benchmark and tests)
    capture the recommendation sequence *through the production replay
    loop itself* — re-implementing the interleaving rules elsewhere
    could silently diverge from what replay actually does.
    """
    if batch_size < 1:
        raise ServingError(f"batch_size must be >= 1, got {batch_size}")
    served = rejected = queries = mutations = 0
    hits = 0
    epsilon_spent = 0.0
    applied_before = service.mutations_applied
    compactions_before = service.compactions
    pending: list[int] = []
    pending_times: list[float] = []

    def flush() -> None:
        nonlocal served, rejected, hits, epsilon_spent
        if not pending:
            return
        for response in service.recommend_batch(pending, at=pending_times):
            if response.served:
                served += 1
                hits += int(response.cache_hit)
                epsilon_spent += response.epsilon_spent
            else:
                rejected += 1
            if on_response is not None:
                on_response(response)
        pending.clear()
        pending_times.clear()

    started = time.perf_counter()
    for event in events:
        if event.is_mutation:
            mutations += 1
            flush()
            service.apply_edge_event(event)
        else:
            queries += 1
            pending.append(event.user)
            pending_times.append(event.time)
            if len(pending) >= batch_size:
                flush()
    flush()
    wall = time.perf_counter() - started
    return StreamReplaySummary(
        num_events=len(events),
        num_queries=queries,
        num_served=served,
        num_rejected=rejected,
        num_mutations=mutations,
        num_mutations_applied=service.mutations_applied - applied_before,
        num_compactions=service.compactions - compactions_before,
        wall_seconds=wall,
        events_per_second=len(events) / wall if wall > 0 else float("inf"),
        cache_hit_rate=hits / served if served else 0.0,
        total_epsilon_spent=epsilon_spent,
        final_epoch=service.epoch,
        final_version=service.graph.version,
    )
