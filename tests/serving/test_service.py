"""Tests for the RecommendationService endpoints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import toy, wiki_vote
from repro.errors import (
    BudgetExhaustedError,
    MechanismError,
    PrivacyParameterError,
    ServingError,
)
from repro.mechanisms import (
    BestMechanism,
    ExponentialMechanism,
    LaplaceMechanism,
    SmoothingMechanism,
    UniformMechanism,
    mechanism_registry,
)
from repro.serving import STATUS_NO_CANDIDATES, STATUS_REJECTED, RecommendationService
from repro.telemetry import KIND_CHARGE, KIND_REFUSAL, Telemetry
from repro.utility import CommonNeighbors
from repro.utility.base import UtilityVector


@pytest.fixture
def graph():
    return wiki_vote(scale=0.03)


@pytest.fixture(scope="module")
def static_graph():
    """The same graph, built once for tests that never mutate it."""
    return wiki_vote(scale=0.03)


def make_service(graph, **kwargs) -> RecommendationService:
    kwargs.setdefault("epsilon", 0.5)
    kwargs.setdefault("user_budget", 2.0)
    kwargs.setdefault("seed", 0)
    return RecommendationService(graph, **kwargs)


def ledger_rows(service) -> list:
    """Collect every ledger row the service flushes from now on."""
    rows: list = []
    service.attach_row_sink(rows.extend)
    return rows


class TestSingleRecommend:
    def test_returns_valid_candidate(self, graph):
        service = make_service(graph)
        response = service.recommend(3)
        (choice,) = response.recommendations
        assert choice != 3
        assert not graph.has_edge(3, choice)
        assert response.served
        assert response.epsilon_spent == 0.5

    def test_budget_charged_per_release(self, graph):
        service = make_service(graph)
        service.recommend(3)
        service.recommend(3)
        assert service.budgets.spent(3) == pytest.approx(1.0)
        assert service.remaining_budget(3) == pytest.approx(1.0)

    def test_cache_hit_on_repeat(self, graph):
        service = make_service(graph)
        assert not service.recommend(3).cache_hit
        assert service.recommend(3).cache_hit

    def test_epsilon_override_charges_override(self, graph):
        service = make_service(graph)
        response = service.recommend(3, epsilon=0.1)
        assert response.epsilon_spent == pytest.approx(0.1)
        assert service.remaining_budget(3) == pytest.approx(1.9)

    def test_override_rejected_for_nonprivate_mechanism(self, graph):
        service = make_service(graph, mechanism="best")
        with pytest.raises(ServingError):
            service.recommend(3, epsilon=0.1)


class TestBudgetExhaustion:
    def test_raises_once_budget_is_gone(self, graph):
        service = make_service(graph)  # budget 2.0, eps 0.5 -> 4 releases
        for _ in range(4):
            service.recommend(5)
        with pytest.raises(BudgetExhaustedError):
            service.recommend(5)

    def test_refusal_leaves_accountant_consistent(self, graph):
        service = make_service(graph)
        rows = ledger_rows(service)
        for _ in range(4):
            service.recommend(5)
        spent_before = service.budgets.spent(5)
        with pytest.raises(BudgetExhaustedError):
            service.recommend(5)
        assert service.budgets.spent(5) == spent_before
        # one charge row per served release, then the refusal's row
        assert [row[0] for row in rows] == [KIND_CHARGE] * 4 + [KIND_REFUSAL]
        assert sum(row[2] for row in rows) == spent_before

    def test_other_users_unaffected(self, graph):
        service = make_service(graph)
        for _ in range(4):
            service.recommend(5)
        assert service.recommend(6).served


def top_k_user(graph, k: int) -> int:
    """A user whose k-th largest common-neighbour count beats the next one,
    so the top-k set is unambiguous."""
    for user in range(graph.num_nodes):
        values = np.sort(CommonNeighbors().utility_vector(graph, user).values)[::-1]
        if values.size > k and values[k - 1] > values[k] > 0:
            return user
    raise AssertionError("no user with a strict top-k")


class TestTopK:
    def test_distinct_picks_and_composed_cost(self, graph):
        service = make_service(graph, user_budget=5.0)
        rows = ledger_rows(service)
        response = service.recommend(3, k=3)
        assert len(set(response.recommendations)) == 3
        for pick in response.recommendations:
            assert pick != 3 and not graph.has_edge(3, pick)
        assert response.epsilon_spent == pytest.approx(1.5)
        assert service.budgets.spent(3) == pytest.approx(1.5)
        # One k * epsilon charge, one ledger row.
        assert [(row[0], row[1], row[2]) for row in rows] == [(KIND_CHARGE, 3, 1.5)]

    def test_k_equal_to_candidates_takes_every_candidate(self, graph):
        service = make_service(graph, user_budget=1e6)
        candidates = CommonNeighbors().utility_vector(graph, 3).candidates
        response = service.recommend(3, k=candidates.size)
        assert sorted(response.recommendations) == candidates.tolist()

    def test_best_mechanism_returns_the_top_k(self, graph):
        service = make_service(graph, mechanism="best")
        user = top_k_user(graph, 2)
        vector = CommonNeighbors().utility_vector(graph, user)
        utility_of = dict(zip(vector.candidates.tolist(), vector.values.tolist()))
        response = service.recommend(user, k=2)
        # The two largest utilities, largest first: with a strict top-2
        # that is the top-2 set.
        picked = [utility_of[pick] for pick in response.recommendations]
        assert picked == np.sort(vector.values)[::-1][:2].tolist()
        assert response.epsilon_spent == 0.0

    def test_unaffordable_k_refused_before_any_spend(self, graph):
        service = make_service(graph)  # budget 2.0
        rows = ledger_rows(service)
        state = service._rng.bit_generator.state
        with pytest.raises(BudgetExhaustedError):
            service.recommend(3, k=5)  # needs 2.5
        assert service.budgets.spent(3) == 0.0
        assert service._rng.bit_generator.state == state
        assert [(row[0], row[8]) for row in rows] == [(KIND_REFUSAL, 2.5)]

    @pytest.mark.parametrize("k", [0, -1, "too_many"])
    def test_bad_k_raises_before_any_draw_or_charge(self, graph, k):
        service = make_service(graph, user_budget=1e6)
        if k == "too_many":
            k = len(CommonNeighbors().utility_vector(graph, 3)) + 1
        rows = ledger_rows(service)
        state = service._rng.bit_generator.state
        with pytest.raises(MechanismError):
            service.recommend(3, k=k)
        assert service.budgets.spent(3) == 0.0
        assert service._rng.bit_generator.state == state
        assert rows == []


def dense_peel(mechanism, vector, k: int, rng) -> list:
    """The dense top-k peel ``recommend(user, k=)`` replaced, as an oracle:
    draw a pick, then rebuild the row's dense arrays without it."""
    picks: list = []
    for _ in range(k):
        picks.append(int(mechanism.recommend(vector, seed=rng)))
        keep = vector.candidates != picks[-1]
        vector = UtilityVector(
            target=vector.target,
            candidates=vector.candidates[keep],
            values=vector.values[keep],
            target_degree=vector.target_degree,
            metadata=dict(vector.metadata),
        )
    return picks


#: name -> mechanism factory; covers every registered mechanism, and
#: smoothing over both a non-private and a private base.
PEEL_MECHANISMS = {
    "best": BestMechanism,
    "uniform": UniformMechanism,
    "exponential": lambda: ExponentialMechanism(0.5, sensitivity=2.0),
    "laplace": lambda: LaplaceMechanism(0.5, sensitivity=2.0),
    "smoothing": lambda: SmoothingMechanism(0.6),
    "smoothing_exponential": lambda: SmoothingMechanism(
        0.6, base=ExponentialMechanism(0.5, sensitivity=2.0)
    ),
}


class TestTopKPeelOracle:
    def test_every_registered_mechanism_is_covered(self):
        assert set(mechanism_registry()) <= set(PEEL_MECHANISMS)

    @pytest.mark.parametrize("form", ["support", "dense"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("name", sorted(PEEL_MECHANISMS))
    def test_recommend_equals_the_dense_peel(self, static_graph, name, k, form):
        service = make_service(
            static_graph, mechanism=PEEL_MECHANISMS[name](), user_budget=1e9, seed=7
        )
        oracle, rng = PEEL_MECHANISMS[name](), np.random.default_rng(7)
        for user in (3, 6, 11, 3):
            row = service.cache.get(user)  # the cache fills support-form rows
            if form == "dense" and row.excluded is not None:
                row = UtilityVector(row.target, row.candidates, row.values, row.target_degree)
                service.cache.put(user, row)
            assert (row.excluded is None) == (form == "dense")
            expected = dense_peel(oracle, row, k, rng)
            assert service.recommend(user, k=k).recommendations == tuple(expected)


class TestBatch:
    def test_all_served_with_valid_candidates(self, graph):
        service = make_service(graph)
        responses = service.recommend_batch(list(range(30)))
        assert len(responses) == 30
        for user, response in enumerate(responses):
            assert response.served
            (choice,) = response.recommendations
            assert choice != user
            assert not graph.has_edge(user, choice)

    def test_budget_charged_per_batch_entry(self, graph):
        service = make_service(graph)
        service.recommend_batch([1, 1, 2])
        assert service.budgets.spent(1) == pytest.approx(1.0)
        assert service.budgets.spent(2) == pytest.approx(0.5)

    def test_exhausted_users_rejected_not_fatal(self, graph):
        service = make_service(graph)
        for _ in range(4):
            service.recommend(5)
        responses = service.recommend_batch([4, 5, 6])
        statuses = [r.status for r in responses]
        assert statuses == ["served", STATUS_REJECTED, "served"]
        rejected = responses[1]
        assert rejected.recommendations == ()
        assert rejected.epsilon_spent == 0.0
        assert service.budgets.spent(5) == pytest.approx(2.0)

    def test_repeated_user_stops_when_budget_runs_out_mid_batch(self, graph):
        service = make_service(graph)  # 4 affordable releases per user
        responses = service.recommend_batch([7] * 6)
        assert [r.served for r in responses] == [True] * 4 + [False] * 2
        assert service.budgets.spent(7) == pytest.approx(2.0)

    def test_batch_seeds_cache_for_single_path(self, graph):
        service = make_service(graph)
        service.recommend_batch([10, 11])
        assert service.recommend(10).cache_hit

    def test_nonexponential_fallback_path(self, graph):
        mechanism = LaplaceMechanism(epsilon=0.5, sensitivity=2.0)
        service = make_service(graph, mechanism=mechanism)
        responses = service.recommend_batch([0, 1, 2])
        assert all(r.served for r in responses)
        assert all(r.mechanism == "laplace" for r in responses)

    def test_batch_matches_sequential_distribution(self):
        """Batched sampling and sequential sampling agree on a fixed seed's
        aggregate distribution: same target, many requests, compare the
        empirical pick frequencies against the exact softmax probabilities."""
        graph = toy.paper_example_graph()
        utility = CommonNeighbors()
        mechanism = ExponentialMechanism(epsilon=2.0, sensitivity=2.0)
        vector = utility.utility_vector(graph, 0)
        exact = mechanism.probabilities(vector)

        draws = 8_000
        service = RecommendationService(
            graph,
            utility=utility,
            mechanism=mechanism,
            user_budget=2.0 * draws,
            seed=11,
        )
        responses = service.recommend_batch([0] * draws)
        picks = np.asarray([r.recommendations[0] for r in responses])
        counts = np.bincount(picks, minlength=graph.num_nodes)[vector.candidates]
        tv_distance = 0.5 * np.abs(counts / draws - exact).sum()
        assert tv_distance < 0.03


class TestCacheAndVersioning:
    def test_graph_mutation_invalidates_cache(self, graph):
        service = make_service(graph, user_budget=100.0)
        service.recommend(3)
        assert service.recommend(3).cache_hit
        # find a non-edge to add
        for v in range(graph.num_nodes):
            if v != 3 and not graph.has_edge(3, v):
                graph.add_edge(3, v)
                break
        response = service.recommend(3)
        assert not response.cache_hit
        assert len(service.cache) == 1

    def test_ledger_rows_record_graph_version(self, graph):
        service = make_service(graph, user_budget=100.0)
        rows = ledger_rows(service)
        service.recommend(3)
        version_before = rows[-1][5]
        graph.try_add_edge(0, graph.num_nodes - 1)
        service.recommend(3)
        assert rows[-1][5] > version_before


class TestLedgerRows:
    def test_one_record_per_request_including_rejections(self, graph):
        service = make_service(graph)
        rows = ledger_rows(service)
        service.recommend(1)
        service.recommend_batch([1, 2])
        for _ in range(2):
            service.recommend(1)
        with pytest.raises(BudgetExhaustedError):
            service.recommend(1)  # refused singles are audited too
        responses = service.recommend_batch([1, 3])
        assert responses[0].status == STATUS_REJECTED
        assert sum(row[0] == KIND_REFUSAL for row in rows) == 2
        assert sum(row[2] for row in rows if row[1] == 1) == pytest.approx(2.0)
        assert len(rows) == 8  # 1 + 2 + 2 + 1 refused + 2

    def test_request_ids_are_unique_and_ordered(self, graph):
        service = make_service(graph, user_budget=100.0)
        rows = ledger_rows(service)
        service.recommend(0)
        service.recommend_batch([1, 2, 3])
        ids = [row[6] for row in rows]  # a service row's clock is its request id
        assert ids == sorted(set(ids)) == [0.0, 1.0, 2.0, 3.0]

    def test_latency_recorded(self, graph):
        telemetry = Telemetry()
        service = make_service(graph, telemetry=telemetry)
        service.recommend(0)
        latency = telemetry.registry.histogram("serve.request_seconds")
        assert latency.count == 1
        assert latency.total > 0

    def test_zero_epsilon_serves_write_no_row(self, graph):
        service = make_service(graph, mechanism="best")
        rows = ledger_rows(service)
        assert service.recommend(0).served
        assert service.recommend_batch([1, 2])[0].served
        assert rows == []


class TestConfiguration:
    def test_utility_by_name(self, graph):
        service = make_service(graph, utility="common_neighbors")
        assert isinstance(service.utility, CommonNeighbors)

    def test_mechanism_by_name_gets_graph_sensitivity(self, graph):
        service = make_service(graph)
        assert isinstance(service.mechanism, ExponentialMechanism)
        assert service.mechanism.sensitivity == 2.0  # undirected common neighbors

    def test_budget_overrides(self, graph):
        service = make_service(graph, budget_overrides={9: 0.4})
        with pytest.raises(BudgetExhaustedError):
            service.recommend(9)  # 0.5 > 0.4
        assert service.recommend(8).served

    def test_cache_bound_validated_with_a_typed_error(self, graph):
        with pytest.raises(ServingError):
            make_service(graph, cache_max_entries=0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan")])
    def test_bad_budget_override_fails_at_construction(self, graph, bad):
        """A bad override must not wait for the first batch containing
        that user, where it would fail every other user's request too."""
        with pytest.raises(PrivacyParameterError):
            make_service(graph, budget_overrides={3: bad})

    def test_smoothing_charged_its_size_dependent_epsilon(self, graph):
        """SmoothingMechanism has no scalar epsilon, but its Theorem 5
        leakage must still be metered against the user's budget."""
        from repro.mechanisms import SmoothingMechanism, smoothing_epsilon

        mechanism = SmoothingMechanism(0.5)
        service = make_service(graph, mechanism=mechanism, user_budget=1000.0)
        user = 3
        num_candidates = graph.num_nodes - 1 - graph.out_degree(user)
        expected = smoothing_epsilon(num_candidates, 0.5)
        response = service.recommend(user)
        assert response.epsilon_spent == pytest.approx(expected)
        assert service.budgets.spent(user) == pytest.approx(expected)

    def test_smoothing_budget_exhausts_and_batch_agrees(self, graph):
        from repro.mechanisms import SmoothingMechanism, smoothing_epsilon

        mechanism = SmoothingMechanism(0.5)
        user = 3
        num_candidates = graph.num_nodes - 1 - graph.out_degree(user)
        per_release = smoothing_epsilon(num_candidates, 0.5)
        service = make_service(
            graph, mechanism=mechanism, user_budget=1.5 * per_release
        )
        assert service.recommend(user).served
        with pytest.raises(BudgetExhaustedError):
            service.recommend(user)
        batch = service.recommend_batch([user, user + 1])
        assert batch[0].status == STATUS_REJECTED
        assert batch[1].served
        assert service.budgets.spent(user) == pytest.approx(per_release)

    def test_smoothing_top_k_charges_accountant(self, graph):
        from repro.mechanisms import SmoothingMechanism

        service = make_service(
            graph, mechanism=SmoothingMechanism(0.5), user_budget=1000.0
        )
        response = service.recommend(3, k=2)
        assert response.epsilon_spent > 0
        assert service.budgets.spent(3) == pytest.approx(
            response.epsilon_spent
        )

    def test_epsilon_per_release_reports_mechanism_epsilon(self, graph):
        """Regression: this property crashed with a TypeError (missing
        ``user`` argument) since the serving layer landed."""
        service = make_service(graph)
        assert service.epsilon_per_release == pytest.approx(0.5)



class TestNoCandidates:
    """The hub of a star is linked to everyone: it has no candidate."""

    def service(self, mechanism="exponential"):
        service = RecommendationService(
            toy.star(leaves=3), mechanism=mechanism, epsilon=0.5, user_budget=10.0, seed=0
        )
        rows: list = []
        service.attach_row_sink(rows.extend)
        return service, rows

    def test_single_request_draws_and_spends_nothing(self):
        service, rows = self.service()
        before = service._rng.bit_generator.state
        response = service.recommend(0, k=2)
        assert response.status == STATUS_NO_CANDIDATES and not response.served
        assert response.recommendations == () and response.epsilon_spent == 0.0
        assert service._rng.bit_generator.state == before
        assert service.budgets.spent(0) == 0.0
        assert [(row[0], row[1], row[2], row[7]) for row in rows] == [
            (KIND_REFUSAL, 0, 0.0, "no_candidates")
        ]

    def test_batch_serves_the_rest_from_two_uniforms_each(self):
        service, rows = self.service()
        alone = RecommendationService(toy.star(leaves=3), epsilon=0.5, user_budget=10.0, seed=0)
        leaf, hub = service.recommend_batch([1, 0])
        assert leaf.served and leaf == alone.recommend_batch([1])[0]
        assert hub.status == STATUS_NO_CANDIDATES and hub.epsilon_spent == 0.0
        reference = np.random.default_rng(0)
        reference.random((1, 2))
        assert service._rng.bit_generator.state == reference.bit_generator.state
        assert service.budgets.spent(0) == 0.0 and service.budgets.spent(1) == 0.5
        assert [(row[0], row[1], row[7]) for row in rows] == [
            (KIND_CHARGE, 1, ""),
            (KIND_REFUSAL, 0, "no_candidates"),
        ]

    @pytest.mark.parametrize("mechanism", ["laplace", "smoothing", "uniform", "best"])
    def test_every_mechanism_answers_the_hub(self, mechanism):
        service, rows = self.service(
            SmoothingMechanism(0.6) if mechanism == "smoothing" else mechanism
        )
        responses = service.recommend_batch([0, 2, 0])
        assert [r.status for r in responses] == [
            STATUS_NO_CANDIDATES, "served", STATUS_NO_CANDIDATES
        ]
        assert service.recommend(0).status == STATUS_NO_CANDIDATES
        assert sum(row[7] == "no_candidates" for row in rows) == 3
