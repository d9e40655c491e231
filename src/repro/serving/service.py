"""The online recommendation service.

:class:`RecommendationService` is the operational wrapper around the
paper's objects: a :class:`~repro.graphs.graph.SocialGraph`, a utility
function, and a (registry-resolvable) mechanism, behind three endpoints —

* :meth:`RecommendationService.recommend` — one private recommendation
  for one user;
* :meth:`RecommendationService.recommend_top_k` — ``k`` distinct
  recommendations by peeling
  (:class:`~repro.extensions.multi_recommendations.TopKRecommender`);
* :meth:`RecommendationService.recommend_batch` — one recommendation for
  each of many users in a single batched pass (sparse batched utility
  rows + Gumbel-max sampling over each row's support).

Every endpoint enforces per-user privacy budgets (refusing *before*
sampling, so refusals spend nothing), reuses utilities through a
version-keyed cache, and leaves one privacy-ledger row per charge or
refusal whenever a ledger or a write-ahead log consumes them.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

import numpy as np

from ..compute.kernels import utility_vectors
from ..compute.plan import ComputePlan, resolve_dtype
from ..compute.workspace import get_workspace
from ..errors import BudgetExhaustedError, ServingError
from ..extensions.multi_recommendations import TopKRecommender
from ..graphs.graph import SocialGraph
from ..mechanisms.base import Mechanism, PrivateMechanism, make_mechanism
from ..mechanisms.exponential import ExponentialMechanism
from ..mechanisms.smoothing import SmoothingMechanism
from ..rng import ensure_rng, spawn_rngs
from ..telemetry import runtime as telemetry_runtime
from ..telemetry.ledger import KIND_CHARGE, KIND_REFUSAL
from ..telemetry.runtime import traced_map
from ..utility.base import UtilityFunction, make_utility
from .budgets import BudgetManager
from .cache import DEFAULT_PATCH_CROSSOVER, UtilityCache
from .records import (
    STATUS_REJECTED,
    STATUS_SERVED,
    RecommendationRequest,
    RecommendationResponse,
)


class RecommendationService:
    """Budget-aware, caching, batch-capable recommendation server.

    Parameters
    ----------
    graph:
        The live social graph. The service reads it on demand; external
        mutations are safe and automatically invalidate the utility cache
        through the graph's ``version`` counter.
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
    chunk_size:
        Maximum requests (and missing-vector targets) a single batch
        chunk handles. Serving rows are support-form, so only an
        incremental service's component fills materialize a dense
        ``chunk_size x num_nodes`` block per chunk. ``None`` keeps the
        whole batch in one chunk. Batch results are bit-identical for
        every chunk size — sampling draws from per-request spawned
        streams, never from a shared generator.
    dtype:
        Compute dtype of the batched stages and of every cached utility
        vector (anything :func:`repro.compute.plan.resolve_dtype`
        accepts). The float64 default reproduces historical behavior
        exactly; ``"float32"`` halves the cache's resident value bytes
        under the tolerance contract of DESIGN.md ("memory dataflow").
        Scalar paths (single ``recommend``, probability vectors) always
        evaluate in float64 regardless.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`. When given, every
        request records latency/status metrics and a privacy-ledger
        entry (charge or refusal), batch chunks run traced
        (:func:`~repro.telemetry.runtime.traced_map`), and mechanism
        internals count samples through the ambient helpers. ``None``
        (default) keeps the service exactly as fast as before — the
        instrumentation reduces to ``is None`` checks.
    incremental:
        Patch dirty cached rows with journaled score deltas instead of
        evicting them (:mod:`repro.compute.incremental`). ``None`` (the
        default) auto-enables exactly when it can help: the utility
        decomposes into walk components *and* the graph journals typed
        deltas (a :class:`~repro.streaming.overlay.MutableSocialGraph`).
        ``False`` forces the evict-and-recompute behavior; ``True`` on a
        non-decomposable utility raises
        :class:`~repro.errors.ServingError` (on a plain graph it merely
        caches component side-cars that never get to patch). Served
        scores are bit-identical either way.
    patch_crossover:
        Forwarded to :class:`~repro.serving.cache.UtilityCache`: the
        scatter-cost multiple of a row's candidate count past which a
        dirty row is evicted rather than patched.
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
        chunk_size: "int | None" = None,
        dtype=None,
        telemetry=None,
        incremental: "bool | None" = None,
        patch_crossover: float = DEFAULT_PATCH_CROSSOVER,
    ) -> None:
        self.graph = graph
        if utility is None:
            utility = "common_neighbors"
        self.utility = make_utility(utility) if isinstance(utility, str) else utility
        if graph.num_nodes > 0:
            self._sensitivity = float(self.utility.sensitivity(graph, 0))
        else:
            self._sensitivity = 1.0
        if isinstance(mechanism, str):
            mechanism = make_mechanism(
                mechanism, epsilon=epsilon, sensitivity=self._sensitivity
            )
        self.mechanism = mechanism
        self.dtype = resolve_dtype(dtype)
        self.budgets = BudgetManager(user_budget, overrides=budget_overrides)
        decomposable = self.utility.walk_component_lengths() is not None
        if incremental is None:
            incremental = decomposable and hasattr(graph, "request_score_deltas")
        elif incremental and not decomposable:
            raise ServingError(
                f"incremental serving needs a walk-decomposable utility; "
                f"{self.utility.name!r} declares no component lengths"
            )
        self.incremental = bool(incremental)
        self.cache = UtilityCache(
            graph,
            self.utility,
            max_entries=cache_max_entries,
            dtype=self.dtype,
            incremental=self.incremental,
            patch_crossover=patch_crossover,
        )
        self._rng = ensure_rng(seed)
        self._next_request_id = 0
        # The service's endpoints share mutable state (RNG, cache fills,
        # budget charges, request ids) and are not safe to run concurrently;
        # submit_batch serializes external submitters on this lock. The
        # lock is per-service and re-exported by wrapping layers (the
        # streaming engine, the HTTP edge) so mutations and batches from
        # any thread interleave whole-call, never mid-batch.
        self._submission_lock = threading.Lock()
        # Validates eagerly so a bad chunk_size fails at construction.
        ComputePlan(0, chunk_size)
        self.chunk_size = chunk_size
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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ambient(self):
        """Ambient-activation context: a no-op unless telemetry is attached."""
        if self.telemetry is None:
            return nullcontext()
        return telemetry_runtime.activate(self.telemetry)

    def _graph_stamp(self) -> "tuple[int, int]":
        """The graph's ``(epoch, version)``; plain graphs live in epoch 0."""
        stamp = getattr(self.graph, "stamp", None)
        return (0, self.graph.version) if stamp is None else stamp
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
                return float("inf")  # no candidates; recommend will error anyway
            return float(mechanism.epsilon_for(num_candidates))
        return 0.0

    def _check_budget(
        self,
        user: int,
        cost: float,
        mechanism: Mechanism,
        started: float,
    ) -> None:
        """Budget-guard a request, recording the refusal before raising."""
        try:
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
            self._flush_telemetry()
            raise

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

    @property
    def ledger_buffer(self) -> "list[tuple] | None":
        """The ledger rows awaiting the next flush; ``None`` if nothing consumes them.

        A wrapping layer that makes its own accounting decisions (the
        streaming engine's sliding windows) appends its ready-typed rows
        here, so they reach the ledger and the row sink through the same
        flush, in the same order, as the service's own rows.
        """
        if self.telemetry is None and self._row_sink is None:
            return None
        return self._ledger_buffer

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
                self._ledger_buffer.append(
                    (KIND_REFUSAL, int(user), 0.0, mechanism.name,
                     int(epoch), int(version), clock, "", float(needed))
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
        self, user: int, epsilon: "float | None" = None
    ) -> RecommendationResponse:
        """One private recommendation for ``user``.

        Raises :class:`~repro.errors.BudgetExhaustedError` — without
        spending anything or drawing any sample — when the release would
        exceed the user's remaining budget.
        """
        started = time.perf_counter()
        mechanism = self._mechanism_for(epsilon)
        cost = self._release_cost(mechanism, user)
        self._check_budget(user, cost, mechanism, started)
        with self._ambient(), telemetry_runtime.span("serve.recommend", user=int(user)):
            cache_hit = user in self.cache
            vector = self.cache.get(user)
            choice = mechanism.recommend(vector, seed=self._rng)
        self.budgets.charge(user, cost)
        response = self._record(
            user=user,
            epsilon_spent=cost,
            mechanism=mechanism,
            recommendations=(int(choice),),
            status=STATUS_SERVED,
            cache_hit=cache_hit,
            latency_seconds=time.perf_counter() - started,
        )
        self._flush_telemetry()
        return response

    def recommend_top_k(
        self, user: int, k: int, epsilon: "float | None" = None
    ) -> RecommendationResponse:
        """``k`` distinct recommendations by peeling; costs ``k * epsilon``.

        The full sequential-composition cost is checked up front, so a
        request that cannot afford all ``k`` picks is refused before the
        first sample instead of stopping halfway through, and charged as
        one ``k * epsilon`` release — the amount its ledger row records.
        """
        started = time.perf_counter()
        mechanism = self._mechanism_for(epsilon)
        cost = self._release_cost(mechanism, user)
        self._check_budget(user, k * cost, mechanism, started)
        with self._ambient(), telemetry_runtime.span(
            "serve.recommend_top_k", user=int(user), k=int(k)
        ):
            cache_hit = user in self.cache
            vector = self.cache.get(user)
            picks = TopKRecommender(mechanism, k).recommend(vector, seed=self._rng)
        self.budgets.charge(user, k * cost)
        response = self._record(
            user=user,
            epsilon_spent=k * cost,
            mechanism=mechanism,
            recommendations=tuple(int(p) for p in picks),
            status=STATUS_SERVED,
            cache_hit=cache_hit,
            latency_seconds=time.perf_counter() - started,
        )
        self._flush_telemetry()
        return response

    def recommend_batch(
        self,
        users: "list[int] | np.ndarray",
        epsilon: "float | None" = None,
    ) -> list[RecommendationResponse]:
        """One recommendation per user, computed in a single vectorized pass.

        Users whose budget cannot cover the release get a ``"rejected"``
        response — the rest of the batch is still served. With an
        :class:`ExponentialMechanism` the served users share one batched
        utility computation (``A[targets] @ A`` on the cached CSR adjacency
        matrix, kept sparse) and one Gumbel-max pass over each row's
        support (:meth:`ExponentialMechanism.recommend_vectors`); other
        mechanisms fall back to a per-user loop that still shares the
        utility cache.

        Per-request latency is the batch wall time divided evenly across
        its requests.
        """
        started = time.perf_counter()
        users = [int(u) for u in users]
        mechanism = self._mechanism_for(epsilon)
        cost_of = {user: self._release_cost(mechanism, user) for user in set(users)}

        to_serve: list[tuple[int, int]] = []  # (position, user) pairs to serve
        rejected: list[int] = []  # positions refused for budget
        charged: dict[int, float] = {}  # tentative per-user spend within this batch
        for position, user in enumerate(users):
            already = charged.get(user, 0.0)
            cost = cost_of[user]
            if self.budgets.can_spend(user, already + cost):
                charged[user] = already + cost
                to_serve.append((position, user))
            else:
                rejected.append(position)

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
        rejected_set = set(rejected)
        for position, user in enumerate(users):
            if position in rejected_set:
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
        self._flush_telemetry()
        return responses

    def _batch_exponential(
        self,
        served_users: list[int],
        to_serve: list[tuple[int, int]],
        mechanism: ExponentialMechanism,
    ) -> tuple[dict[int, int], dict[int, bool]]:
        """Vectorized hot path, chunked through :mod:`repro.compute`.

        Missing utility vectors are computed by the shared kernel stage in
        :class:`~repro.compute.plan.ComputePlan` chunks; sampling runs per
        chunk of *requests* with one spawned RNG stream per request. The
        chunk functions are pure; cache fills and stats are applied here,
        after each map. Per-request streams make the sampled
        recommendations bit-identical for every chunk size.
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
            plan = ComputePlan(len(missing), self.chunk_size, self.dtype)
            fresh_chunks = traced_map(
                _vectors_chunk,
                [np.asarray(chunk.take(missing), dtype=np.int64) for chunk in plan],
                (self.graph, self.utility, self.dtype.name, self.incremental),
                self.telemetry,
                label="serve.vectors",
            )
            for fresh in fresh_chunks:
                for vector in fresh:
                    vectors[vector.target] = vector
                    self.cache.put(vector.target, vector)
        # One stream per request (duplicated users sample independently);
        # position in the batch, not chunk layout, decides each draw.
        streams = spawn_rngs(self._rng, len(to_serve))
        plan = ComputePlan(len(to_serve), self.chunk_size, self.dtype)
        payloads = [
            (
                [vectors[user] for _, user in chunk.take(to_serve)],
                chunk.take(streams),
            )
            for chunk in plan
        ]
        sampled_chunks = traced_map(
            _sample_chunk,
            payloads,
            mechanism,
            self.telemetry,
            label="serve.sample",
        )
        picks = {
            position: int(node)
            for chunk, sampled in zip(plan, sampled_chunks)
            for (position, _), node in zip(chunk.take(to_serve), sampled)
        }
        return picks, hit_for_user

    def record_rejection(self, user: int, needed: float = 0.0) -> RecommendationResponse:
        """Record a refusal decided by a policy layer outside this service.

        The streaming engine's sliding-window budget mode refuses
        requests *before* they reach the lifetime-budget check; routing
        the refusal through here keeps the ledger complete — every
        decision about a user, wherever it was made, leaves a row.
        ``needed`` (the epsilon the refused release would have cost) is
        preserved on the ledger row.
        """
        response = self._record(
            user=int(user),
            epsilon_spent=0.0,
            mechanism=self.mechanism,
            recommendations=(),
            status=STATUS_REJECTED,
            cache_hit=False,
            latency_seconds=0.0,
            needed=needed,
        )
        self._flush_telemetry()
        return response

    def release_cost(self, user: int, epsilon: "float | None" = None) -> float:
        """Epsilon one recommendation to ``user`` would charge right now.

        Public wrapper over the internal cost rule so wrapping layers
        (e.g. the streaming engine's window accountants) meter the same
        size-dependent costs the service itself charges.
        """
        return self._release_cost(self._mechanism_for(epsilon), int(user))

    @property
    def submission_lock(self) -> threading.Lock:
        """The lock serializing external submitters (see :meth:`submit_batch`)."""
        return self._submission_lock

    def submit_batch(
        self,
        users: "list[int] | np.ndarray",
        epsilon: "float | None" = None,
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
            return self.recommend_batch(users, epsilon=epsilon)

    def handle(self, request: RecommendationRequest) -> RecommendationResponse:
        """Serve one :class:`RecommendationRequest` (dispatching on ``k``)."""
        if request.k == 1:
            return self.recommend(request.user, epsilon=request.epsilon)
        return self.recommend_top_k(request.user, request.k, epsilon=request.epsilon)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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

    def collect_metrics(self):
        """Fold the pull-style sources into the registry and return it.

        The cache keeps its own locked counters and the workspace its own
        residency figures; neither pushes into the registry on its hot
        path. Monitoring therefore *scrapes* them here — cache statistics
        become ``cache.*`` gauges (gauges, not counters: these are
        cumulative readings of external state, and re-scraping must
        overwrite, never re-add), alongside the calling thread's
        workspace, where the batch chunks ran.
        """
        if self.telemetry is None:
            raise ServingError("service has no telemetry attached")
        self._flush_telemetry()
        registry = self.telemetry.registry
        for name, value in self.cache.snapshot().items():
            registry.gauge(f"cache.{name}").set(value)
        workspace = get_workspace()
        registry.gauge("workspace.bytes_resident").set(workspace.bytes_resident())
        registry.gauge("workspace.high_water_bytes").set(workspace.high_water_bytes)
        return registry

    def verify_ledger(self) -> None:
        """Reconcile the privacy ledger against every user's lifetime spend.

        Raises :class:`~repro.errors.LedgerInconsistencyError` on any
        mismatch between the ledger's summed charges and a user's spent
        balance; a no-op service-health check to run after any replay.
        """
        if self.telemetry is None:
            raise ServingError("service has no telemetry attached")
        self._flush_telemetry()
        self.telemetry.ledger.assert_consistent(budgets=self.budgets)


def _vectors_chunk(shared, targets: np.ndarray):
    """Chunk task: utility vectors for one chunk of cache misses.

    Argument-pure (graph + utility in, vectors out); the service applies
    the results to its cache. The vectors are support-form, except that
    an incremental service fills dense rows with the walk-component
    side-car (their score/mask blocks ride the thread's reusable
    workspace) so every freshly cached row is patchable — same values
    either way.
    """
    graph, utility, dtype_name, with_components = shared
    return utility_vectors(
        graph,
        utility,
        targets,
        dtype=dtype_name,
        workspace=get_workspace(),
        with_components=with_components,
    )


def _sample_chunk(mechanism: ExponentialMechanism, payload):
    """Chunk task: exponential samples for one chunk of requests.

    ``payload`` is ``(vectors, streams)`` — the chunk's per-request
    utility vectors and RNG streams, sampled by
    :meth:`ExponentialMechanism.recommend_vectors` in O(support) per
    request.
    """
    vectors, streams = payload
    return mechanism.recommend_vectors(vectors, streams)
