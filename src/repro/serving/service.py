"""The online recommendation service.

:class:`RecommendationService` is the operational wrapper around the
paper's objects: a :class:`~repro.graphs.graph.SocialGraph`, a utility
function, and a (registry-resolvable) mechanism, behind two endpoints —

* :meth:`RecommendationService.recommend` — ``k`` distinct private
  recommendations for one user (one by default), peeled off the user's
  cached row and charged ``k`` times one pick's epsilon (Appendix A);
* :meth:`RecommendationService.recommend_batch` — one recommendation for
  each of many users in a single batched pass (sparse batched utility
  rows + one inverse-CDF sampling pass over every row's support, from
  two uniforms per request).

Every request of either endpoint runs one path: admit (per-user lifetime
budget and, with ``window=``, the sliding-window budget — refusing
*before* sampling, so refusals spend nothing), draw, charge, record (one
privacy-ledger row per charge or refusal whenever a ledger or a
write-ahead log consumes them) and commit (one write-ahead-log commit
record per endpoint call once a log is attached). A user with no
candidate (every other node already a neighbor) gets a
``"no_candidates"`` response that draws and spends nothing. Utilities
are reused through a version-keyed cache.

Over a :class:`~repro.streaming.overlay.MutableSocialGraph` the same
service also takes graph mutations (:meth:`~RecommendationService.
apply_edge_event`), compacts the overlay and journals to a write-ahead
log; on any other graph those endpoints raise
:class:`~repro.errors.ServingError`.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING

import numpy as np

from ..compute.kernels import utility_vectors
from ..errors import BudgetExhaustedError, MechanismError, NodeError, ServingError
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism, PrivateMechanism, make_mechanism
from ..mechanisms.exponential import ExponentialMechanism
from ..mechanisms.smoothing import SmoothingMechanism
from ..rng import ensure_rng
from ..telemetry import runtime as telemetry_runtime
from ..telemetry.ledger import (
    KIND_CHARGE,
    KIND_REFUSAL,
    KIND_WINDOW_CHARGE,
    KIND_WINDOW_EXPIRY,
)
from ..telemetry.metrics import DEFAULT_SIZE_BUCKETS
from ..telemetry.runtime import traced_map
from ..utility.base import UtilityFunction, make_utility
from .budgets import BudgetManager, SlidingWindowAccountant
from .cache import UtilityCache
from .records import (
    STATUS_NO_CANDIDATES,
    STATUS_REJECTED,
    STATUS_SERVED,
    RecommendationResponse,
)

if TYPE_CHECKING:
    from ..streaming.events import StreamEvent


class RecommendationService:
    """Budget-aware, caching, batch-capable recommendation server.

    Parameters
    ----------
    graph:
        The live social graph. The service reads it on demand; external
        mutations are safe and automatically invalidate the utility cache
        through the graph's ``version`` counter. Pass a
        :class:`~repro.streaming.overlay.MutableSocialGraph` to serve
        while mutating through :meth:`apply_edge_event`.
    utility:
        A :class:`UtilityFunction` instance or registry name
        (default: ``"common_neighbors"``, the paper's running example).
    mechanism:
        A :class:`Mechanism` instance or registry name (default
        ``"exponential"``). Named private mechanisms are instantiated with
        ``epsilon`` and the utility's analytic sensitivity on this graph.
    epsilon:
        Per-release epsilon used when ``mechanism`` is given by name.
    user_budget:
        Default lifetime epsilon budget per user; ``budget_overrides``
        maps specific users to different budgets.
    cache_max_entries:
        Optional cap on resident cached utility vectors.
    seed:
        Seed / generator for all sampling randomness.
    window, window_budget:
        Enable sliding-window accounting: within any trailing ``window``
        of the event clock, each user spends at most ``window_budget``
        (default: ``user_budget``). ``window=None`` (default) keeps
        lifetime-only accounting.
    compact_every:
        Auto-compact the overlay once its delta reaches this many edges
        (``None`` = only explicit :meth:`compact` calls). Needs a
        :class:`~repro.streaming.overlay.MutableSocialGraph`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`. When given, every
        request records latency/status metrics and a privacy-ledger
        entry (charge or refusal), the batch's kernel and sampler tasks
        run traced (:func:`~repro.telemetry.runtime.traced_map`), and mechanism
        internals count samples through the ambient helpers; mutations
        add their latency, dirty-ball sizes (only for mutations a patching
        cache journals) and compaction durations. ``None`` (default)
        keeps the service exactly as fast as before — the
        instrumentation reduces to ``is None`` checks.

    Serving runs in float64: a batch's cache misses are filled in one
    sparse kernel call (:func:`~repro.compute.kernels.utility_vectors`)
    and its requests are sampled in one pass, so picks are the same
    however a stream of requests is split into batches.

    The utility cache patches stale rows from journaled score deltas
    when it can (a walk-decomposable utility on a
    :class:`~repro.streaming.overlay.MutableSocialGraph`) and flushes on
    a version change otherwise; ``service.cache.patchable`` says which.
    Served scores are bit-identical either way.
    """

    def __init__(
        self,
        graph: SocialGraph,
        utility: "UtilityFunction | str | None" = None,
        mechanism: "Mechanism | str" = "exponential",
        *,
        epsilon: float = 0.5,
        user_budget: float = 10.0,
        budget_overrides: "dict[int, float] | None" = None,
        cache_max_entries: "int | None" = None,
        seed: "int | np.random.Generator | None" = None,
        window: "float | None" = None,
        window_budget: "float | None" = None,
        compact_every: "int | None" = None,
        telemetry=None,
    ) -> None:
        # Deferred: repro.streaming's replay driver imports this module.
        from ..streaming.overlay import MutableSocialGraph

        self.graph = graph
        self._mutable = isinstance(graph, MutableSocialGraph)
        if utility is None:
            utility = "common_neighbors"
        self.utility = make_utility(utility) if isinstance(utility, str) else utility
        if isinstance(mechanism, str):
            sensitivity = (
                float(self.utility.sensitivity(graph, 0)) if graph.num_nodes > 0 else 1.0
            )
            mechanism = make_mechanism(mechanism, epsilon=epsilon, sensitivity=sensitivity)
        self.mechanism = mechanism
        self.budgets = BudgetManager(user_budget, overrides=budget_overrides)
        if window is None and window_budget is not None:
            raise ServingError("window_budget requires window to be set")
        if window is not None and not window > 0:
            raise ServingError(f"window must be positive, got {window}")
        if window_budget is not None and not window_budget > 0:
            raise ServingError(f"window_budget must be positive, got {window_budget}")
        if compact_every is not None:
            if compact_every < 1:
                raise ServingError(f"compact_every must be >= 1, got {compact_every}")
            self._require_overlay("compact_every")
        #: Trailing-window length of the event clock, or ``None`` (lifetime only).
        self.window = None if window is None else float(window)
        self.window_budget = (
            None if window is None
            else float(user_budget if window_budget is None else window_budget)
        )
        self.compact_every = compact_every
        self._window_accountants: "dict[int, SlidingWindowAccountant]" = {}
        self.cache = UtilityCache(graph, self.utility, max_entries=cache_max_entries)
        self._rng = ensure_rng(seed)
        self._next_request_id = 0
        #: The event clock: the latest request or mutation time seen.
        self.clock = 0.0
        self.mutations_applied = 0
        #: Mutation *events* seen (applied or tolerated no-ops) — the
        #: durable resume cursor: a recovered run must skip exactly this
        #: many of the stream's mutation events, changed or not.
        self.mutation_events_seen = 0
        self.compactions = 0
        self.wal = None  # attached via attach_wal (durability layer)
        # The service's endpoints share mutable state (RNG, cache fills,
        # budget charges, request ids, the graph) and are not safe to run
        # concurrently; submit_batch and submit_edge_event serialize
        # external submitters on this lock, so mutations and batches from
        # any thread interleave whole-call, never mid-batch.
        self._submission_lock = threading.Lock()
        self.telemetry = telemetry
        # Ledger rows feed the telemetry ledger *and* any attached row
        # sink (the durability layer's WAL); the buffer exists
        # unconditionally — one empty list at construction — so attaching
        # a sink later never changes the hot path's shape.
        self._ledger_buffer: "list[tuple]" = []
        self._row_sink = None
        if telemetry is not None:
            # Handles resolved once: _record runs per request, and a
            # name lookup per call roughly doubles its metric cost. The
            # buffers hold per-request events between _flush_telemetry
            # calls (one flush per endpoint call, not per request).
            registry = telemetry.registry
            self._request_seconds = registry.histogram("serve.request_seconds")
            self._served_counter = registry.counter("serve.served")
            self._rejected_counter = registry.counter("serve.rejected")
            self._latency_buffer: "list[float]" = []
            self._served_tally = 0
            self._rejected_tally = 0
            if self._mutable:
                # apply_edge_event runs per stream event, and a registry
                # lookup per call is measurable there.
                self._mutations_counter = registry.counter("stream.mutations_applied")
                self._ball_histogram = registry.histogram(
                    "stream.dirty_ball_size", buckets=DEFAULT_SIZE_BUCKETS
                )
                self._mutation_seconds = registry.histogram("stream.mutation_seconds")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ambient(self):
        """Ambient-activation context: a no-op unless telemetry is attached."""
        if self.telemetry is None:
            return nullcontext()
        return telemetry_runtime.activate(self.telemetry)

    def _require_overlay(self, what: str) -> None:
        if not self._mutable:
            raise ServingError(
                f"{what} needs a MutableSocialGraph, not a {type(self.graph).__name__}"
            )

    def _mechanism_for(self, epsilon: "float | None") -> Mechanism:
        """The serving mechanism, re-parameterized for a per-request epsilon."""
        if epsilon is None or epsilon == self.mechanism.epsilon:
            return self.mechanism
        if not isinstance(self.mechanism, PrivateMechanism):
            raise ServingError(
                f"mechanism {self.mechanism.name!r} takes no epsilon; "
                "per-request overrides require a private mechanism"
            )
        return type(self.mechanism)(epsilon=epsilon, sensitivity=self.mechanism.sensitivity)

    def _release_cost(self, mechanism: Mechanism, user: int) -> float:
        """Epsilon charged for one release to ``user``.

        Scalar-epsilon mechanisms (exponential, Laplace, uniform) charge
        their ``epsilon``. Smoothing's privacy level depends on the
        candidate-set size (Theorem 5), which is ``n - 1 - degree`` and
        thus user-specific — charging it correctly is what keeps the
        budget guarantee honest for every registered mechanism. Only the
        genuinely non-private baselines (``best``: ``epsilon is None``)
        charge 0, since they carry no guarantee to meter.
        """
        epsilon = mechanism.epsilon
        if epsilon is not None:
            return float(epsilon)
        if isinstance(mechanism, SmoothingMechanism):
            num_candidates = self.graph.num_nodes - 1 - self.graph.out_degree(user)
            if num_candidates < 1:
                return float("inf")  # never charged: the endpoints answer no_candidates
            return float(mechanism.epsilon_for(num_candidates))
        return 0.0

    def _request_times(self, at, count: int) -> "list[float] | None":
        """Each request's accounting time; advances the event clock.

        ``at`` is one time for every request or one non-decreasing time
        per request (default: the clock). Batching requests must not
        shift their accounting clocks, or a query would be admitted
        against a window that had already expired spends it should still
        see. The clock never runs backwards: a time earlier than one
        already seen is accounted *at the clock* (window entries older
        than the clock's trailing window are physically gone, so honoring
        a stale time literally would overspend the window it names). A
        non-finite time raises :class:`~repro.errors.ServingError`: an
        infinite clock would expire every window spend on arrival.
        Returns ``None`` when no window reads the times.
        """
        if at is None:
            return None if self.window is None else [self.clock] * count
        if not np.isfinite(at).all():
            raise ServingError(f"timestamps must be finite, got at={at!r}")
        if np.ndim(at) == 0:
            times = [max(float(at), self.clock)] * count
        else:
            times = [float(t) for t in at]
            if len(times) != count:
                raise ServingError(f"got {len(times)} timestamps for {count} users")
            if any(b < a for a, b in zip(times, times[1:])):
                raise ServingError("per-request timestamps must be non-decreasing")
            times = [max(t, self.clock) for t in times]
        if times:
            self.clock = times[-1]
        return None if self.window is None else times

    def _window_accountant(self, user: int) -> SlidingWindowAccountant:
        accountant = self._window_accountants.get(user)
        if accountant is None:
            accountant = SlidingWindowAccountant(self.window_budget, self.window)
            self._window_accountants[user] = accountant
        return accountant

    def _check_budget(
        self,
        user: int,
        cost: float,
        mechanism: Mechanism,
        started: float,
        now: "float | None",
    ) -> None:
        """Budget-guard a request, recording and committing the refusal before raising.

        The sliding window (when ``now`` is given) is checked first, then
        the lifetime budget; either refusal is one unlabelled refusal row.
        """
        try:
            if now is not None:
                accountant = self._window_accountant(user)
                if not accountant.can_spend(cost, now):
                    self._count("stream.window_refusals", 1)
                    raise BudgetExhaustedError(
                        user=int(user), needed=float(cost),
                        remaining=accountant.remaining(now), budget=self.window_budget,
                    )
            self.budgets.check(user, cost)
        except BudgetExhaustedError:
            self._record(
                user=user,
                epsilon_spent=0.0,
                mechanism=mechanism,
                recommendations=(),
                status=STATUS_REJECTED,
                cache_hit=False,
                latency_seconds=time.perf_counter() - started,
                needed=cost,
            )
            self._commit()
            raise

    def _count(self, name: str, amount: int) -> None:
        """Add ``amount`` to a telemetry counter (a no-op without telemetry)."""
        if amount and self.telemetry is not None:
            self.telemetry.registry.counter(name).inc(amount)

    def _charge_windows(self, charges, mechanism_name: str) -> None:
        """Charge served ``(user, epsilon, time)`` releases to their sliding windows.

        The expiries and charges become ready-typed ledger rows behind the
        requests' own rows, so one flush delivers them to the ledger and
        the row sink (the WAL) alike: expiries as they fire, then every
        charge. Mutations never happen mid-call, so one stamp serves all.
        """
        rows = (
            self._ledger_buffer
            if self.telemetry is not None or self._row_sink is not None
            else None
        )
        epoch, version = (int(part) for part in self.stamp)
        charge_rows: "list[tuple]" = []
        expiries = 0
        for user, epsilon, now in charges:
            expired = self._window_accountant(user).spend(epsilon, now)
            expiries += len(expired)
            if rows is not None:
                rows.extend(
                    (KIND_WINDOW_EXPIRY, user, spent, "", epoch, version,
                     expired_at, "window expiry", 0.0)
                    for expired_at, spent in expired
                )
                charge_rows.append(
                    (KIND_WINDOW_CHARGE, user, float(epsilon), mechanism_name,
                     epoch, version, float(now), "", 0.0)
                )
        if rows is not None:
            rows.extend(charge_rows)
        self._count("stream.window_expiries", expiries)

    def _is_barren(self, user: int) -> bool:
        """Whether ``user`` has no candidate: every other node is already a neighbor.

        An unknown id is not barren; it fails later with the utility's own error.
        """
        num_nodes = self.graph.num_nodes
        return 0 <= user < num_nodes and self.graph.out_degree(user) == num_nodes - 1

    def _refuse_barren(
        self, user: int, mechanism: Mechanism, latency_seconds: float
    ) -> RecommendationResponse:
        """Answer a user with no candidates: no draw, no charge, one labelled refusal row."""
        return self._record(
            user=user,
            epsilon_spent=0.0,
            mechanism=mechanism,
            recommendations=(),
            status=STATUS_NO_CANDIDATES,
            cache_hit=False,
            latency_seconds=latency_seconds,
        )

    def attach_row_sink(self, sink) -> None:
        """Mirror every buffered ledger row into ``sink`` at flush time.

        ``sink`` is any callable taking an iterable of ledger rows — in
        practice :meth:`~repro.durability.wal.WriteAheadLog.buffer_rows`.
        The sink sees exactly the rows (and the row order) the telemetry
        ledger sees, which is what makes a WAL-rebuilt ledger
        entry-for-entry identical; it also works with no telemetry
        attached at all, so an untelemetered service still journals a
        complete accounting trail.
        """
        if self._row_sink is not None:
            raise ServingError("service already has a ledger row sink attached")
        self._row_sink = sink

    def _flush_telemetry(self) -> None:
        """Fold buffered per-request events into the registry and ledger.

        Called before every endpoint returns (and before a budget refusal
        propagates), so externally the registry and ledger are always
        complete and in arrival order — buffering is invisible except to
        the per-request cost the overhead benchmark gates. This is the
        only place ledger rows leave the service: the telemetry ledger
        and the row sink receive the same rows in the same order.
        """
        if self.telemetry is None and self._row_sink is None:
            return
        if self.telemetry is not None:
            if self._latency_buffer:
                self._request_seconds.observe_many(self._latency_buffer)
                self._latency_buffer.clear()
            if self._served_tally:
                self._served_counter.inc(self._served_tally)
                self._served_tally = 0
            if self._rejected_tally:
                self._rejected_counter.inc(self._rejected_tally)
                self._rejected_tally = 0
        if self._ledger_buffer:
            if self.telemetry is not None:
                self.telemetry.ledger.append_batch(self._ledger_buffer)
            if self._row_sink is not None:
                self._row_sink(self._ledger_buffer)
            self._ledger_buffer.clear()

    def _commit(self) -> None:
        """Flush the call's rows and, with a log attached, seal them in one commit.

        The commit record carries the staged rows plus the post-call
        state, so a call is atomic on disk: a torn commit drops it
        entirely and resume re-executes it from the previous commit's RNG
        state, bit-identically.
        """
        self._flush_telemetry()
        if self.wal is not None:
            self.wal.commit(self.durable_state())

    def _record(
        self,
        *,
        user: int,
        epsilon_spent: float,
        mechanism: Mechanism,
        recommendations: tuple[int, ...],
        status: str,
        cache_hit: bool,
        latency_seconds: float,
        needed: float = 0.0,
    ) -> RecommendationResponse:
        telemetry = self.telemetry
        if telemetry is not None or self._row_sink is not None:
            # Every decision lands in the metrics and the ledger here —
            # one choke point, so the registry, ledger, and write-ahead
            # log can never tell different stories. The writes are
            # *buffered* (plain appends) and folded into the registry/
            # ledger/sink by _flush_telemetry before any endpoint returns:
            # per-request locks and method dispatch are what push
            # instrumentation overhead past its benchmark gate. Metric
            # tallies stay telemetry-only; ledger rows are built whenever
            # anyone — ledger or sink — consumes them. With neither, a
            # request retains nothing: the budget is one float per user.
            if telemetry is not None:
                self._latency_buffer.append(latency_seconds)
            stamp = getattr(self.graph, "stamp", None)
            epoch, version = (0, self.graph.version) if stamp is None else stamp
            clock = float(self._next_request_id)
            if status == STATUS_SERVED:
                if telemetry is not None:
                    self._served_tally += 1
                if epsilon_spent > 0:
                    # Buffered rows are exactly the LedgerEntry fields
                    # minus seq, pre-typed, so append_batch is one list
                    # extend. The entry's clock IS the request id, so
                    # per-request labels would only duplicate it at
                    # f-string cost.
                    self._ledger_buffer.append(
                        (KIND_CHARGE, int(user), float(epsilon_spent),
                         mechanism.name, int(epoch), int(version), clock, "", 0.0)
                    )
            else:
                if telemetry is not None:
                    self._rejected_tally += 1
                # A budget refusal is the unlabelled kind; any other
                # refusal names its status.
                label = "" if status == STATUS_REJECTED else status
                self._ledger_buffer.append(
                    (KIND_REFUSAL, int(user), 0.0, mechanism.name,
                     int(epoch), int(version), clock, label, float(needed))
                )
        self._next_request_id += 1
        return RecommendationResponse(
            user=int(user),
            recommendations=recommendations,
            epsilon_spent=epsilon_spent,
            mechanism=mechanism.name,
            status=status,
            cache_hit=cache_hit,
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: int,
        epsilon: "float | None" = None,
        *,
        k: int = 1,
        at: "float | None" = None,
    ) -> RecommendationResponse:
        """``k`` distinct private recommendations for ``user`` at event time ``at``.

        Picks are drawn by peeling (Appendix A): each pick is one
        ``mechanism.recommend`` draw on the row with the earlier picks
        removed (:meth:`~repro.utility.base.UtilityVector.without`), and
        the release costs ``k`` times one pick's epsilon by sequential
        composition. That cost is checked up front, against the sliding
        window (when ``window=`` is set) and the lifetime budget: a
        request that cannot afford all ``k`` picks raises
        :class:`~repro.errors.BudgetExhaustedError` after leaving one
        refusal row, without spending anything or drawing any sample. A
        served one is charged once to each budget and leaves one charge
        row (plus its window rows). A user with no candidates gets a
        ``"no_candidates"`` response, with no draw, no charge and one
        refusal row labelled ``no_candidates``. ``k`` below 1 or above
        the number of candidates raises
        :class:`~repro.errors.MechanismError`, also before any draw or
        charge. ``at`` defaults to the clock (see :meth:`recommend_batch`).
        """
        if k < 1:
            raise MechanismError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        times = self._request_times(at, 1)
        now = None if times is None else times[0]
        mechanism = self._mechanism_for(epsilon)
        if self._is_barren(user):
            response = self._refuse_barren(user, mechanism, time.perf_counter() - started)
            self._commit()
            return response
        cost = k * self._release_cost(mechanism, user)
        self._check_budget(user, cost, mechanism, started, now)
        with self._ambient(), telemetry_runtime.span("serve.recommend", user=int(user), k=k):
            cache_hit = user in self.cache
            vector = self.cache.get(user)
            if k > len(vector):
                raise MechanismError(
                    f"cannot make {k} distinct recommendations from {len(vector)} candidates"
                )
            picks = [int(mechanism.recommend(vector, seed=self._rng))]
            while len(picks) < k:
                vector = vector.without(picks[-1])
                picks.append(int(mechanism.recommend(vector, seed=self._rng)))
        self.budgets.charge(user, cost)
        response = self._record(
            user=user,
            epsilon_spent=cost,
            mechanism=mechanism,
            recommendations=tuple(picks),
            status=STATUS_SERVED,
            cache_hit=cache_hit,
            latency_seconds=time.perf_counter() - started,
        )
        if now is not None:
            self._charge_windows([(int(user), cost, now)], mechanism.name)
        self._commit()
        return response

    def recommend_batch(
        self,
        users: "list[int] | np.ndarray",
        epsilon: "float | None" = None,
        *,
        at: "float | list[float] | None" = None,
    ) -> list[RecommendationResponse]:
        """One recommendation per user, computed in a single vectorized pass.

        Users whose lifetime budget (or, with ``window=`` set, whose
        trailing-window spend at their time) cannot cover the release get
        a ``"rejected"`` response, and users with no candidates a
        ``"no_candidates"`` one — the rest of the batch is still served.
        With an :class:`ExponentialMechanism` the served users share one
        batched utility computation (``A[targets] @ A`` on the cached CSR
        adjacency matrix, kept sparse) and one inverse-CDF pass over every
        row's support (:meth:`ExponentialMechanism.recommend_vectors`);
        other mechanisms fall back to a per-user loop that still shares
        the utility cache.

        ``at`` is the event time: one for the whole batch or one
        non-decreasing time per request (default: the clock). The clock
        never runs backwards; a stale time is accounted at the clock, and
        a non-finite one raises :class:`~repro.errors.ServingError`.

        Each served exponential request draws exactly two uniforms from
        the service's generator, in batch order, and its pick depends only
        on its row and those two uniforms. So a same-seed service answers
        the same requests identically however they are split into batches
        or single :meth:`recommend` calls; refused requests draw nothing.
        Candidates are counted before any budget check or draw.

        Per-request latency is the batch wall time divided evenly across
        its requests.
        """
        started = time.perf_counter()
        users = [int(u) for u in users]
        times = self._request_times(at, len(users))
        mechanism = self._mechanism_for(epsilon)
        barren = {user for user in set(users) if self._is_barren(user)}
        cost_of = {user: self._release_cost(mechanism, user) for user in set(users) - barren}

        to_serve: list[tuple[int, int]] = []  # (position, user) pairs to serve
        rejected: set[int] = set()  # positions refused for budget
        charged: dict[int, float] = {}  # tentative per-user spend within this batch
        window_refusals = 0
        for position, user in enumerate(users):
            if user in barren:
                continue
            spend = charged.get(user, 0.0) + cost_of[user]
            if times is not None and not self._window_accountant(user).can_spend(
                spend, times[position]
            ):
                window_refusals += 1
                rejected.add(position)
            elif self.budgets.can_spend(user, spend):
                charged[user] = spend
                to_serve.append((position, user))
            else:
                rejected.add(position)

        picks: dict[int, int] = {}  # position -> recommended node
        hit_for_user: dict[int, bool] = {}
        if to_serve:
            served_users = [user for _, user in to_serve]
            with self._ambient(), telemetry_runtime.span(
                "serve.recommend_batch", requests=len(users), served=len(to_serve)
            ):
                if isinstance(mechanism, ExponentialMechanism):
                    picks, hit_for_user = self._batch_exponential(
                        served_users, to_serve, mechanism
                    )
                else:
                    for position, user in to_serve:
                        hit_for_user[user] = user in self.cache
                        vector = self.cache.get(user)
                        picks[position] = int(
                            mechanism.recommend(vector, seed=self._rng)
                        )

        latency = time.perf_counter() - started
        share = latency / len(users) if users else 0.0
        responses: list[RecommendationResponse] = []
        window_charges: "list[tuple[int, float, float]]" = []
        for position, user in enumerate(users):
            if user in barren:
                responses.append(self._refuse_barren(user, mechanism, share))
                continue
            if position in rejected:
                responses.append(
                    self._record(
                        user=user,
                        epsilon_spent=0.0,
                        mechanism=mechanism,
                        recommendations=(),
                        status=STATUS_REJECTED,
                        cache_hit=False,
                        latency_seconds=share,
                        needed=cost_of[user],
                    )
                )
                continue
            self.budgets.charge(user, cost_of[user])
            responses.append(
                self._record(
                    user=user,
                    epsilon_spent=cost_of[user],
                    mechanism=mechanism,
                    recommendations=(picks[position],),
                    status=STATUS_SERVED,
                    cache_hit=hit_for_user.get(user, False),
                    latency_seconds=share,
                )
            )
            if times is not None:
                window_charges.append((user, cost_of[user], times[position]))
        if window_charges:
            self._charge_windows(window_charges, mechanism.name)
        self._count("stream.window_refusals", window_refusals)
        self._commit()
        return responses

    def _batch_exponential(
        self,
        served_users: list[int],
        to_serve: list[tuple[int, int]],
        mechanism: ExponentialMechanism,
    ) -> tuple[dict[int, int], dict[int, bool]]:
        """Vectorized hot path on the shared :mod:`repro.compute` kernels.

        Missing utility vectors are computed by one call of the shared
        kernel stage; sampling runs in one pass over the batch's
        requests, from one ``random((served, 2))`` draw of the service's
        generator. The two task functions are pure; cache fills and stats
        are applied here.
        """
        unique_users = sorted(set(served_users))
        missing = self.cache.missing(unique_users)
        missing_set = set(missing)
        hit_for_user = {u: u not in missing_set for u in unique_users}
        self.cache.record_lookups(len(unique_users) - len(missing), len(missing))
        # Collect every vector locally before inserting the fresh ones: with
        # a bounded cache, puts may evict entries this very batch still needs.
        vectors = {
            user: self.cache.get_resident(user)
            for user in unique_users
            if user not in missing_set
        }
        if missing:
            [fresh] = traced_map(
                _vectors_chunk,
                [np.asarray(missing, dtype=np.int64)],
                (self.graph, self.utility, self.cache.patchable),
                self.telemetry,
                label="serve.vectors",
            )
            for vector in fresh:
                vectors[vector.target] = vector
                self.cache.put(vector.target, vector)
        # Two uniforms per request, in batch order (duplicated users sample
        # independently).
        uniforms = self._rng.random((len(to_serve), 2))
        [sampled] = traced_map(
            _sample_chunk,
            [([vectors[user] for _, user in to_serve], uniforms)],
            mechanism,
            self.telemetry,
            label="serve.sample",
        )
        picks = {
            position: int(node) for (position, _), node in zip(to_serve, sampled)
        }
        return picks, hit_for_user

    def release_cost(self, user: int, epsilon: "float | None" = None) -> float:
        """Epsilon one recommendation to ``user`` would charge right now.

        The edge quotes it in a refusal's ``needed`` hint; it is the cost
        both budgets are checked and charged with.
        """
        return self._release_cost(self._mechanism_for(epsilon), int(user))

    def submit_batch(
        self,
        users: "list[int] | np.ndarray",
        epsilon: "float | None" = None,
        *,
        at: "float | list[float] | None" = None,
    ) -> list[RecommendationResponse]:
        """Thread-serialized :meth:`recommend_batch` — the submission
        surface for asynchronous front ends.

        The endpoints themselves assume single-threaded callers (shared
        RNG, cache fills, request ids); this wrapper makes concurrent
        submitters safe by serializing whole batches on the service's
        submission lock. Results are identical to calling
        :meth:`recommend_batch` in the granted lock order — the edge may
        reorder *arrival*, never results.
        """
        with self._submission_lock:
            return self.recommend_batch(users, epsilon=epsilon, at=at)

    # ------------------------------------------------------------------
    # Mutations (a MutableSocialGraph only)
    # ------------------------------------------------------------------
    def apply_edge_event(self, event: "StreamEvent") -> bool:
        """Apply one mutation event; return whether the graph changed.

        Duplicate adds and missing removals are tolerated (the stream may
        be replayed against a graph that drifted), advancing the clock
        either way. Auto-compacts when the delta crosses
        ``compact_every``, and re-derives the serving mechanism's noise
        calibration after every applied mutation. An endpoint outside
        the graph raises :class:`~repro.errors.NodeError` before the
        event touches the clock, the cursor or the write-ahead log, so a
        rejected event leaves nothing for recovery to replay.
        """
        # Deferred: repro.streaming's replay driver imports this module.
        from ..streaming.events import KIND_ADD

        self._require_overlay("apply_edge_event")
        if not event.is_mutation:
            raise ServingError(f"not a mutation event: {event!r}")
        for node in (event.u, event.v):
            if node >= self.graph.num_nodes:
                raise NodeError(node, self.graph.num_nodes)
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

    def submit_edge_event(self, event: "StreamEvent") -> bool:
        """Thread-serialized :meth:`apply_edge_event`: the mutation takes
        the same lock as query batches, so it applies strictly between
        them — whole-batch interleaving is what keeps an edge-driven run
        replayable as a serial event sequence."""
        with self._submission_lock:
            return self.apply_edge_event(event)

    def _recalibrate_sensitivity(self) -> None:
        """Re-derive Delta f and update the mechanism's noise calibration.

        The paper's Section 8 "changing sensitivity" issue, which
        :func:`~repro.extensions.dynamic.sensitivity_drift` measures:
        degree-dependent utilities (weighted paths grows with d_max) must
        re-calibrate their noise as the graph evolves, or the audited
        epsilon silently understates the true privacy loss. The
        sensitivity read is one vectorized ``max`` over the overlay's
        live degree vector — for constant-sensitivity utilities (common
        neighbors) the update is a no-op float compare per mutation.

        The calibration is updated *in place*: every private mechanism
        reads ``sensitivity`` at sampling time and derives nothing else
        from it at construction, so assignment re-calibrates without
        discarding state a rebuild would lose (e.g. attributes a
        mechanism subclass sets in its constructor).

        Interaction with cache patching: sensitivity depends only on
        the live graph (degrees), never on how a cached row was produced,
        and rows the cache *patches* are exact at the current version
        (bit-identical to recompute) — so a patched row sampled under the
        recalibrated noise is indistinguishable from a recomputed one.
        Nothing here needs to know which rows were patched.
        """
        mechanism = self.mechanism
        if not isinstance(mechanism, PrivateMechanism) or self.graph.num_nodes == 0:
            return
        sensitivity = float(self.utility.sensitivity(self.graph, 0))
        if sensitivity != mechanism.sensitivity:
            mechanism.sensitivity = sensitivity

    def compact(self) -> None:
        """Fold the overlay delta into a fresh CSR base (new epoch)."""
        self._require_overlay("compact")
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
        expiries) is staged into the log, and every endpoint call —
        :meth:`recommend`, :meth:`recommend_batch`, a refusal — seals its
        staged rows plus the post-call state into one atomic commit
        record. Recovery attaches the reopened log only *after*
        installing snapshot state and replaying the tail, so nothing is
        double-journaled. Snapshots carry the overlay, so a log needs a
        :class:`~repro.streaming.overlay.MutableSocialGraph`.
        """
        self._require_overlay("attach_wal")
        if self.wal is not None:
            raise ServingError("service already has a write-ahead log attached")
        self.attach_row_sink(wal.buffer_rows)
        self.wal = wal

    def durable_state(self) -> dict:
        """JSON-able engine state sealed into every WAL commit record.

        Exactly the mutable scalars a bit-identical resume needs beyond
        what edge records and ledger rows already carry: the serving
        RNG's bit-generator state (so the next call draws the same
        samples), the request counter (the ledger rows' clock), the
        event clock, and the mutation-event cursor.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "req": int(self._next_request_id),
            "clock": float(self.clock),
            "mutations_seen": int(self.mutation_events_seen),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stamp(self) -> "tuple[int, int]":
        """The graph's monotone ``(epoch, version)`` stamp (epoch 0 off an overlay)."""
        stamp = getattr(self.graph, "stamp", None)
        return (0, self.graph.version) if stamp is None else stamp

    @property
    def epoch(self) -> int:
        """The overlay's compaction epoch (0 off an overlay)."""
        return self.stamp[0]

    @property
    def epsilon_per_release(self) -> float:
        """Epsilon charged for a default single recommendation.

        Size-dependent mechanisms (smoothing) charge per user; this
        reports the cost for user 0 as a representative figure.
        """
        return self._release_cost(self.mechanism, 0)

    def remaining_budget(self, user: int) -> float:
        """The user's unspent lifetime epsilon."""
        return self.budgets.remaining(user)

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

    def collect_metrics(self):
        """Fold the pull-style sources into the registry and return it.

        The cache keeps its own locked counters and does not push into
        the registry on its hot path. Monitoring therefore *scrapes* them
        here: cache statistics become ``cache.*`` gauges (gauges, not
        counters: these are cumulative readings of external state, and
        re-scraping must overwrite, never re-add), and an overlay's
        clock, delta size and epoch ``stream.*`` gauges.
        """
        if self.telemetry is None:
            raise ServingError("service has no telemetry attached")
        self._flush_telemetry()
        registry = self.telemetry.registry
        for name, value in self.cache.snapshot().items():
            registry.gauge(f"cache.{name}").set(value)
        if self._mutable:
            registry.gauge("stream.clock").set(self.clock)
            registry.gauge("stream.delta_size").set(self.graph.delta_size)
            registry.gauge("stream.epoch").set(self.epoch)
        return registry

    def verify_ledger(self) -> None:
        """Reconcile the privacy ledger against lifetime *and* window spend.

        Lifetime charges must match every user's spent balance and, when
        sliding-window accounting is on, each user's net window spend
        (charges minus expiries) must match what their
        :class:`~repro.serving.budgets.SlidingWindowAccountant` physically
        retains. Raises :class:`~repro.errors.LedgerInconsistencyError` on
        any mismatch; a no-op service-health check to run after any replay.
        """
        if self.telemetry is None:
            raise ServingError("service has no telemetry attached")
        self._flush_telemetry()
        self.telemetry.ledger.assert_consistent(
            budgets=self.budgets,
            window_accountants=self._window_accountants if self.window else None,
        )


def _vectors_chunk(shared, targets: np.ndarray):
    """Kernel task: utility vectors for one batch's cache misses.

    Argument-pure (graph + utility in, vectors out); the service applies
    the results to its cache. The vectors are support-form; a patching
    cache's carry the sparse walk-count side-car, so every freshly
    cached row is patchable — same values either way.
    """
    graph, utility, with_components = shared
    return utility_vectors(graph, utility, targets, with_components=with_components)


def _sample_chunk(mechanism: ExponentialMechanism, payload):
    """Sampler task: exponential samples for one batch's requests.

    ``payload`` is ``(vectors, uniforms)`` — the batch's per-request
    utility vectors and its ``(requests, 2)`` uniforms, sampled by
    :meth:`ExponentialMechanism.recommend_vectors` in O(support) per
    request.
    """
    vectors, uniforms = payload
    return mechanism.recommend_vectors(vectors, uniforms)
