"""Tests for the serve-while-mutating pipeline.

The anchor property (also gated by ``benchmarks/bench_streaming.py``):
serving straight off the delta overlay is *bit-identical* to compacting
the CSR base before every batch, for the same RNG streams — compaction
is a representation change, never a behavioral one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy, wiki_vote
from repro.errors import PrivacyParameterError, ServingError
from repro.mechanisms import SmoothingMechanism
from repro.serving.records import STATUS_NO_CANDIDATES, STATUS_REJECTED, STATUS_SERVED
from repro.streaming import (
    MutableSocialGraph,
    SlidingWindowAccountant,
    StreamingService,
    replay_stream,
    synthetic_event_stream,
)
from repro.telemetry import (
    KIND_CHARGE,
    KIND_REFUSAL,
    KIND_WINDOW_CHARGE,
    KIND_WINDOW_EXPIRY,
    Telemetry,
)

def small_graph():
    return wiki_vote(scale=0.03)


def run_stream(service, events, batch_size=16):
    """Replay through the production loop; return the pick sequence."""
    picks = []
    replay_stream(
        service,
        events,
        batch_size=batch_size,
        on_response=lambda response: picks.append(tuple(response.recommendations)),
    )
    return picks


class TestServeWhileMutatingIdentity:
    @pytest.mark.parametrize("utility", ["common_neighbors", "weighted_paths"])
    def test_overlay_serving_matches_compact_then_serve(self, utility):
        graph = small_graph()
        events = synthetic_event_stream(
            graph, 220, add_fraction=0.08, remove_fraction=0.05, seed=5
        )
        overlay = StreamingService(
            graph, utility, epsilon=0.5, user_budget=1e9, seed=42
        )
        compacting = StreamingService(
            graph, utility, epsilon=0.5, user_budget=1e9, seed=42, compact_every=1
        )
        assert run_stream(overlay, events) == run_stream(compacting, events)
        assert overlay.compactions == 0
        assert compacting.compactions > 0
        assert overlay.graph.stamp[1] == compacting.graph.stamp[1]

    @pytest.mark.parametrize("rows", [8, 1, 32])
    def test_identity_across_batch_splits(self, rows):
        graph = small_graph()
        events = synthetic_event_stream(
            graph, 150, add_fraction=0.1, remove_fraction=0.05, seed=9
        )
        serial = StreamingService(graph, epsilon=0.5, user_budget=1e9, seed=7)
        reference = run_stream(serial, events)
        chunked = StreamingService(graph, epsilon=0.5, user_budget=1e9, seed=7)
        assert run_stream(chunked, events, batch_size=rows) == reference

    def test_cache_survives_mutations_selectively(self):
        graph = small_graph()
        service = StreamingService(graph, epsilon=0.2, user_budget=1e9, seed=0)
        events = synthetic_event_stream(
            graph, 300, add_fraction=0.06, remove_fraction=0.04, seed=2
        )
        summary = replay_stream(service, events, batch_size=32)
        snap = service.cache.snapshot()
        assert summary.num_mutations > 0
        assert snap["invalidations"] == 0  # never a full flush
        assert snap["selective_evictions"] > 0
        assert snap["hits"] > 0


class TestSensitivityRecalibration:
    """Section 8's "changing sensitivity" issue on the serving path.

    Regression: the mechanism used to keep the sensitivity derived at
    construction, so d_max-raising mutations silently under-noised
    degree-dependent utilities and the audited epsilon understated the
    true privacy loss.
    """

    def test_weighted_paths_noise_tracks_dmax_growth(self):
        from repro.streaming import KIND_ADD, StreamEvent
        from repro.utility import WeightedPaths

        graph = toy.path(4)  # d_max = 2
        utility = WeightedPaths(gamma=0.05)
        service = StreamingService(graph, utility, epsilon=1.0, seed=0)
        before = service.mechanism.sensitivity
        assert before == pytest.approx(utility.sensitivity(graph, 0))
        for step, leaf in enumerate((2, 3, 4)):  # raise node 0's degree to 4
            service.apply_edge_event(StreamEvent(float(step), KIND_ADD, u=0, v=leaf))
        after = service.mechanism.sensitivity
        assert after == pytest.approx(utility.sensitivity(service.graph, 0))
        assert after > before

    def test_constant_sensitivity_mechanism_is_not_rebuilt(self):
        from repro.streaming import KIND_ADD, StreamEvent

        service = StreamingService(toy.star(5), epsilon=1.0, seed=0)
        mechanism = service.mechanism
        service.apply_edge_event(StreamEvent(0.0, KIND_ADD, u=1, v=2))
        assert service.mechanism is mechanism  # CN: Delta f constant

    def test_recalibration_preserves_mechanism_state(self):
        """Regression: recalibration used to rebuild the mechanism from
        (epsilon, sensitivity) alone, resetting state a subclass sets in
        its constructor."""
        from repro.mechanisms import LaplaceMechanism
        from repro.streaming import KIND_ADD, StreamEvent
        from repro.utility import WeightedPaths

        class TaggedLaplace(LaplaceMechanism):
            def __init__(self, epsilon, sensitivity, tag):
                super().__init__(epsilon, sensitivity)
                self.tag = tag

        graph = toy.path(4)
        utility = WeightedPaths(gamma=0.05)
        mechanism = TaggedLaplace(0.5, sensitivity=utility.sensitivity(graph, 0), tag=12345)
        service = StreamingService(graph, utility, mechanism, seed=0)
        for step, leaf in enumerate((2, 3, 4)):
            service.apply_edge_event(StreamEvent(float(step), KIND_ADD, u=0, v=leaf))
        assert service.mechanism.tag == 12345
        assert service.mechanism.sensitivity == pytest.approx(
            utility.sensitivity(service.graph, 0)
        )

    def test_non_private_mechanism_tolerated(self):
        from repro.streaming import KIND_ADD, StreamEvent

        service = StreamingService(toy.star(5), mechanism="best", seed=0)
        service.apply_edge_event(StreamEvent(0.0, KIND_ADD, u=1, v=2))
        response = service.recommend_batch([3])[0]
        assert response.served


class TestFeedUnderMutation:
    """A single user's feed while the graph grows: the served row follows
    each mutation, the lifetime budget spans them, and a user with no
    positive utility is still served, from the zero bucket."""

    @staticmethod
    def feed(**kwargs) -> StreamingService:
        return StreamingService(toy.paper_example_graph(), **kwargs)

    def test_served_pick_tracks_graph_changes(self):
        from repro.streaming import KIND_ADD, StreamEvent

        service = self.feed(epsilon=20.0, user_budget=100.0, seed=0)
        service.recommend(0)  # caches user 0's row
        # Node 6 gains two more common neighbours with user 0: 3, the unique
        # maximum, which epsilon 20 all but certainly picks.
        for step, v in enumerate((2, 3)):
            service.apply_edge_event(StreamEvent(float(step), KIND_ADD, u=6, v=v))
        assert service.recommend(0).recommendations == (6,)
        assert service.mechanism.sensitivity == 2.0

    def test_lifetime_budget_spans_mutations(self):
        from repro.errors import BudgetExhaustedError
        from repro.streaming import KIND_ADD, StreamEvent

        service = self.feed(epsilon=0.5, user_budget=1.0, seed=1)
        assert service.recommend(0).served
        service.apply_edge_event(StreamEvent(1.0, KIND_ADD, u=6, v=2))
        assert service.recommend(0).served
        service.apply_edge_event(StreamEvent(2.0, KIND_ADD, u=6, v=3))
        with pytest.raises(BudgetExhaustedError):
            service.recommend(0)
        assert [r.status for r in service.recommend_batch([0, 1])] == [
            STATUS_REJECTED, STATUS_SERVED,
        ]
        assert service.budgets.spent(0) == pytest.approx(1.0)

    def test_user_without_signal_is_served_from_the_zero_bucket(self):
        service = self.feed(epsilon=1.0, user_budget=1e6, seed=2)
        row = service.cache.get(10)  # node 10's only link is 11
        assert not row.has_signal()
        picks = {
            response.recommendations[0] for response in service.recommend_batch([10] * 200)
        }
        assert picks == set(row.candidates.tolist())


class TestStreamingServiceBasics:
    def test_plain_graph_gets_wrapped_and_copied(self):
        base = toy.paper_example_graph()
        service = StreamingService(base, epsilon=0.5, seed=0)
        assert isinstance(service.graph, MutableSocialGraph)
        service.graph.add_edge(0, 6)
        assert not base.has_edge(0, 6)

    def test_overlay_graph_is_shared(self):
        graph = MutableSocialGraph.from_graph(toy.paper_example_graph())
        service = StreamingService(graph, epsilon=0.5, seed=0)
        assert service.graph is graph

    def test_apply_edge_event_rejects_queries(self):
        from repro.streaming import KIND_QUERY, StreamEvent

        service = StreamingService(toy.star(5), seed=0)
        with pytest.raises(ServingError):
            service.apply_edge_event(StreamEvent(0.0, KIND_QUERY, user=1))

    def test_out_of_range_edge_event_changes_nothing(self):
        """An endpoint outside the graph raises before the event touches
        the clock, the mutation cursor or the graph."""
        from repro.errors import NodeError
        from repro.streaming import KIND_ADD, StreamEvent

        service = StreamingService(toy.star(5), seed=0)
        service.apply_edge_event(StreamEvent(1.0, KIND_ADD, u=1, v=2))
        before = (service.clock, service.mutation_events_seen, service.graph.version)
        for u, v in ((1, 6), (6, 1), (99, 2)):
            with pytest.raises(NodeError):
                service.apply_edge_event(StreamEvent(5.0, KIND_ADD, u=u, v=v))
        assert (service.clock, service.mutation_events_seen, service.graph.version) == before

    def test_auto_compaction_threshold(self):
        service = StreamingService(toy.two_communities(5), seed=0, compact_every=3)
        from repro.streaming import KIND_ADD, StreamEvent

        pairs = [(0, 7), (1, 8), (2, 9), (0, 8), (1, 9), (3, 7)]
        for step, (u, v) in enumerate(pairs):
            service.apply_edge_event(StreamEvent(float(step), KIND_ADD, u=u, v=v))
        assert service.compactions == 2
        assert service.graph.epoch == 2

    def test_validation(self):
        with pytest.raises(ServingError):
            StreamingService(toy.star(4), window_budget=1.0)
        with pytest.raises(ServingError):
            StreamingService(toy.star(4), compact_every=0)
        with pytest.raises(ServingError):
            StreamingService(toy.star(4), window=0.0)
        with pytest.raises(ServingError):
            StreamingService(toy.star(4), window=10.0, window_budget=-1.0)
        with pytest.raises(ServingError):
            StreamingService(toy.star(4), cache_max_entries=0)


class TestSlidingWindowAccountant:
    def test_spend_expires_after_window(self):
        accountant = SlidingWindowAccountant(budget=1.0, window=10.0)
        accountant.spend(0.6, now=0.0)
        assert not accountant.can_spend(0.6, now=5.0)
        assert accountant.can_spend(0.6, now=10.5)
        assert accountant.remaining(10.5) == pytest.approx(1.0)

    def test_overspend_raises(self):
        accountant = SlidingWindowAccountant(budget=1.0, window=10.0)
        accountant.spend(0.8, now=0.0)
        with pytest.raises(PrivacyParameterError):
            accountant.spend(0.8, now=1.0)

    def test_clock_never_runs_backwards(self):
        accountant = SlidingWindowAccountant(budget=1.0, window=5.0)
        accountant.spend(0.5, now=100.0)
        # An out-of-order early timestamp still sees the later spend.
        assert accountant.spent(now=0.0) == pytest.approx(0.5)

    def test_reads_are_pure_future_probe_expires_nothing(self):
        """Regression: reads used to advance the expiry clock, so probing
        a far-future time silently freed budget for earlier-timestamped
        queries — over-spending the window."""
        accountant = SlidingWindowAccountant(budget=1.0, window=10.0)
        accountant.spend(1.0, now=5.0)
        assert accountant.remaining(100.0) == pytest.approx(1.0)  # probe
        assert not accountant.can_spend(1.0, now=6.0)  # t=5 entry still counts
        with pytest.raises(PrivacyParameterError):
            accountant.spend(1.0, now=6.0)

    def test_out_of_order_spend_is_accounted_monotonically(self):
        accountant = SlidingWindowAccountant(budget=1.0, window=10.0)
        accountant.spend(0.5, now=50.0)
        accountant.spend(0.5, now=20.0)  # clamped to the accounting clock
        assert accountant.spent(now=50.0) == pytest.approx(1.0)
        assert not accountant.can_spend(0.5, now=55.0)

    def test_validation(self):
        with pytest.raises(PrivacyParameterError):
            SlidingWindowAccountant(budget=0.0, window=1.0)
        with pytest.raises(PrivacyParameterError):
            SlidingWindowAccountant(budget=1.0, window=0.0)
        accountant = SlidingWindowAccountant(budget=1.0, window=1.0)
        with pytest.raises(PrivacyParameterError):
            accountant.can_spend(-0.1, now=0.0)


class TestWindowMode:
    def service(self, **kwargs):
        defaults = dict(
            epsilon=0.5, user_budget=1e9, seed=0, window=10.0, window_budget=1.0
        )
        defaults.update(kwargs)
        return StreamingService(toy.two_communities(6), **defaults)

    def test_throttles_within_window_recovers_after(self):
        service = self.service()
        statuses = [r.status for r in service.recommend_batch([0, 0, 0], at=0.0)]
        assert statuses == [STATUS_SERVED, STATUS_SERVED, STATUS_REJECTED]
        later = service.recommend_batch([0], at=20.0)
        assert later[0].status == STATUS_SERVED

    @pytest.mark.parametrize("mechanism", ["exponential", "smoothing"])
    def test_user_without_candidates_is_not_metered(self, mechanism):
        """A star's hub is answered no_candidates, never window-refused
        (smoothing prices a release with no candidates at infinity)."""
        service = StreamingService(
            toy.star(leaves=3), seed=0, window=10.0, window_budget=5.0,
            mechanism=SmoothingMechanism(0.6) if mechanism == "smoothing" else mechanism,
        )
        hub, leaf = service.recommend_batch([0, 1], at=0.0)
        assert hub.status == STATUS_NO_CANDIDATES and leaf.status == STATUS_SERVED
        assert service.window_remaining(0) == 5.0

    @pytest.mark.parametrize(
        "at", [float("inf"), float("nan"), [0.0, float("inf")], [float("-inf"), 0.0]]
    )
    def test_non_finite_timestamps_rejected(self, at):
        service = self.service()
        service.recommend_batch([0], at=3.0)
        with pytest.raises(ServingError, match="finite"):
            service.recommend_batch([0, 1], at=at)
        assert service.clock == 3.0
        assert service.window_remaining(0) == pytest.approx(0.5)

    def test_infinite_event_time_cannot_switch_off_the_window(self):
        """Regression: an edge event at ``time=inf`` moved the clock to
        infinity, after which every window spend expired as soon as it was
        recorded and one user was served 6 of 6 requests instead of 2."""
        from repro.streaming import KIND_ADD, StreamEvent

        service = self.service()
        with pytest.raises(ServingError):
            service.apply_edge_event(StreamEvent(float("inf"), KIND_ADD, u=0, v=7))
        served = [
            response.served
            for step in range(6)
            for response in service.recommend_batch([0], at=float(step))
        ]
        assert served == [True, True, False, False, False, False]

    def test_refusals_are_audited_and_spend_nothing(self):
        service = self.service()
        rows: list = []
        service.attach_row_sink(rows.extend)
        service.recommend_batch([0, 0, 0], at=0.0)
        assert [row[0] for row in rows] == [
            KIND_CHARGE, KIND_CHARGE, KIND_REFUSAL, KIND_WINDOW_CHARGE,
            KIND_WINDOW_CHARGE,
        ]
        assert sum(row[2] for row in rows if row[0] == KIND_CHARGE) == pytest.approx(1.0)
        assert service.window_remaining(0, at=0.0) == pytest.approx(0.0)

    def test_positions_preserved_in_mixed_batch(self):
        service = self.service()
        responses = service.recommend_batch([0, 1, 0, 1, 0], at=0.0)
        assert [r.user for r in responses] == [0, 1, 0, 1, 0]
        assert [r.status for r in responses] == [
            STATUS_SERVED, STATUS_SERVED, STATUS_SERVED, STATUS_SERVED,
            STATUS_REJECTED,
        ]

    def test_lifetime_budget_still_enforced_underneath(self):
        service = self.service(user_budget=0.5, window_budget=5.0)
        responses = service.recommend_batch([0, 0], at=0.0)
        assert [r.status for r in responses] == [STATUS_SERVED, STATUS_REJECTED]
        # The lifetime rejection must not charge the window.
        assert service.window_remaining(0, at=0.0) == pytest.approx(4.5)

    def test_batch_rows_keep_their_order(self):
        """Each request's charge or refusal row in request order (a window
        refusal like a lifetime one), then window expiries as they fire,
        then window charges — in the ledger and the row sink alike."""
        telemetry = Telemetry()
        service = self.service(telemetry=telemetry)
        rows: list = []
        service.attach_row_sink(rows.extend)
        service.recommend_batch([0, 0], at=0.0)
        del rows[:]
        before = len(telemetry.ledger)
        service.recommend_batch([0, 1, 0, 0], at=20.0)  # expires both t=0 spends
        assert [row[0] for row in rows] == (
            [KIND_CHARGE] * 3 + [KIND_REFUSAL] + [KIND_WINDOW_EXPIRY] * 2
            + [KIND_WINDOW_CHARGE] * 3
        )
        # Request ids (a service row's clock) follow request order.
        assert [row[6] for row in rows[:4]] == [2.0, 3.0, 4.0, 5.0]
        assert telemetry.ledger.raw_rows()[before:] == rows
        service.verify_ledger()

    def test_window_remaining_requires_window_mode(self):
        service = StreamingService(toy.star(5), seed=0)
        with pytest.raises(ServingError):
            service.window_remaining(0)

    def test_per_request_timestamps_keep_window_accounting_honest(self):
        """Regression: a whole batch used to be accounted at its last
        pending timestamp, so a query buffered behind later arrivals was
        admitted against a window its own event time had already filled."""
        service = self.service(epsilon=1.0, window_budget=1.0)
        service.recommend_batch([0], at=0.0)  # fills the window until t=10
        # t=5 is inside the window (must refuse) even though the batch
        # also contains a t=20 request that is affordable again.
        responses = service.recommend_batch([0, 0], at=[5.0, 20.0])
        assert [r.status for r in responses] == [STATUS_REJECTED, STATUS_SERVED]

    def test_stale_timestamps_clamp_to_the_service_clock(self):
        """Regression: a batch timestamped before a previous batch used to
        be admitted against a window whose older spends had already been
        pruned, overspending the event-time budget it named."""
        service = self.service(epsilon=1.0, window_budget=1.0)
        service.recommend_batch([0], at=50.0)  # clock is now 50
        stale = service.recommend_batch([0], at=5.0)  # accounted at t=50
        assert stale[0].status == STATUS_REJECTED
        later = service.recommend_batch([0], at=70.0)
        assert later[0].status == STATUS_SERVED

    def test_per_request_timestamps_validated(self):
        service = self.service()
        with pytest.raises(ServingError):
            service.recommend_batch([0, 1], at=[1.0])
        with pytest.raises(ServingError):
            service.recommend_batch([0, 1], at=[2.0, 1.0])

    def test_default_window_budget_is_user_budget(self):
        service = StreamingService(
            toy.star(5), seed=0, user_budget=3.0, window=10.0
        )
        assert service.window_budget == pytest.approx(3.0)


class TestReplayStream:
    def test_summary_accounts_every_event(self):
        graph = small_graph()
        service = StreamingService(
            graph, epsilon=0.2, user_budget=2.0, seed=0, compact_every=20
        )
        events = synthetic_event_stream(
            graph, 250, add_fraction=0.1, remove_fraction=0.05, seed=3
        )
        summary = replay_stream(service, events, batch_size=25)
        assert summary.num_events == 250
        assert summary.num_queries == sum(1 for e in events if not e.is_mutation)
        assert summary.num_served + summary.num_rejected == summary.num_queries
        assert summary.num_mutations == sum(1 for e in events if e.is_mutation)
        assert summary.num_mutations + summary.num_queries == summary.num_events
        assert summary.num_mutations_applied <= summary.num_mutations
        assert summary.num_compactions == service.compactions
        assert summary.final_epoch == service.graph.epoch
        assert summary.events_per_second > 0
        assert "events/sec" in summary.render()

    def test_counters_are_per_replay_not_cumulative(self):
        """Regression: summaries used to report the service's lifetime
        mutation/compaction counters, so a second replay's breakdown
        disagreed with its own event count."""
        graph = small_graph()
        service = StreamingService(
            graph, epsilon=0.2, user_budget=1e9, seed=0, compact_every=10
        )
        events = synthetic_event_stream(
            graph, 120, add_fraction=0.15, remove_fraction=0.05, seed=4
        )
        first = replay_stream(service, events, batch_size=20)
        again = synthetic_event_stream(
            service.graph, 80, add_fraction=0.15, remove_fraction=0.05, seed=5
        )
        second = replay_stream(service, again, batch_size=20)
        assert first.num_mutations_applied > 0
        assert second.num_mutations == sum(1 for e in again if e.is_mutation)
        assert second.num_mutations_applied <= second.num_mutations
        assert (
            first.num_mutations_applied + second.num_mutations_applied
            == service.mutations_applied
        )
        assert (
            first.num_compactions + second.num_compactions == service.compactions
        )

    def test_batch_size_validated(self):
        service = StreamingService(toy.star(5), seed=0)
        with pytest.raises(ServingError):
            replay_stream(service, [], batch_size=0)

    def test_replay_summary_identical_across_batch_splits(self):
        """The batch size changes neither the picks nor any replay accounting."""
        graph = small_graph()
        events = synthetic_event_stream(
            graph, 120, add_fraction=0.08, remove_fraction=0.04, seed=11
        )

        def replay(batch_size):
            service = StreamingService(
                graph, epsilon=0.5, user_budget=3.0, seed=13, compact_every=30,
            )
            picks = []
            summary = replay_stream(
                service, events, batch_size=batch_size,
                on_response=lambda r: picks.append((r.status, r.recommendations)),
            )
            counts = (
                summary.num_served, summary.num_rejected,
                summary.num_mutations_applied, summary.num_compactions,
                summary.final_epoch,
            )
            return picks, counts

        assert replay(4) == replay(16)
