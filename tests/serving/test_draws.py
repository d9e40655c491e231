"""The served draw contract.

A served exponential pick depends only on the request's utility row and
its two uniforms, and the service draws exactly two uniforms per served
request, in request order, and none for a refused one. So same-seed
services answer the same request sequence identically however it is
split into batches or single calls, and a row's storage form or float
width does not change its pick.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RecommendationService
from repro.datasets import wiki_vote
from repro.errors import BudgetExhaustedError
from repro.mechanisms import ExponentialMechanism
from repro.utility.base import UtilityVector
from repro.utility.weighted_paths import WeightedPaths
from tests.conftest import chunks, make_uniforms

SEED = 2024


@pytest.fixture(scope="module")
def graph():
    return wiki_vote(scale=0.05)


@pytest.fixture(scope="module")
def users(graph):
    """32 requests with repeats: popular users appear several times."""
    return np.random.default_rng(5).integers(0, 40, size=32).tolist()


def _picks(responses) -> list:
    return [response.recommendations[0] for response in responses]


def _service(graph, **options) -> RecommendationService:
    options.setdefault("user_budget", 1e9)
    return RecommendationService(graph, epsilon=0.5, seed=SEED, **options)


def test_one_batch_of_32_equals_two_of_16(graph, users):
    one = _picks(_service(graph).recommend_batch(users))
    service = _service(graph)
    two = _picks(service.recommend_batch(users[:16]) + service.recommend_batch(users[16:]))
    assert one == two


def test_single_calls_equal_batches(graph, users):
    """``recommend(u)`` draws what ``recommend_batch([u])`` draws, and a
    run of single calls what one batch of the same requests draws."""
    single, by_one = _service(graph), _service(graph)
    picks = [single.recommend(user).recommendations[0] for user in users]
    assert picks == [by_one.recommend_batch([user])[0].recommendations[0] for user in users]
    assert picks == _picks(_service(graph).recommend_batch(users))


@pytest.mark.parametrize("rows", [1, 3, 7, None])
def test_every_batch_split_draws_the_same(graph, users, rows):
    """Weighted paths recombines the sparse walk rows of each batch's
    misses; the picks do not depend on how the requests are batched."""
    utility = WeightedPaths(gamma=0.05)
    reference = _picks(_service(graph, utility=utility).recommend_batch(users))
    service = _service(graph, utility=utility)
    picks = [
        pick
        for batch in chunks(users, rows or len(users))
        for pick in _picks(service.recommend_batch(batch))
    ]
    assert picks == reference


def test_generator_advances_two_doubles_per_served_request(graph):
    """Three of four requests fit the budget: six doubles. A refused batch
    and a refused single call draw nothing; a served single call draws two."""
    service = _service(graph, user_budget=1.0)
    expected = np.random.default_rng(SEED)

    responses = service.recommend_batch([3, 3, 3, 4])
    assert [r.served for r in responses] == [True, True, False, True]
    expected.random(6)
    assert service._rng.bit_generator.state == expected.bit_generator.state

    assert not service.recommend_batch([3])[0].served
    with pytest.raises(BudgetExhaustedError):
        service.recommend(3)
    assert service._rng.bit_generator.state == expected.bit_generator.state

    service.recommend(4)
    expected.random(2)
    assert service._rng.bit_generator.state == expected.bit_generator.state


@st.composite
def _rows(draw):
    """A support-form row: sorted positive integer utilities, sorted
    excluded ids, at least one candidate."""
    num_nodes = draw(st.integers(1, 30))
    roles = draw(st.lists(st.sampled_from("szx"), min_size=num_nodes, max_size=num_nodes))
    if "s" not in roles and "z" not in roles:
        roles[0] = "z"
    support = [node for node, role in enumerate(roles) if role == "s"]
    excluded = [node for node, role in enumerate(roles) if role == "x"]
    values = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    return UtilityVector.from_support(0, support, values, excluded, num_nodes, len(excluded))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(_rows(), min_size=1, max_size=8),
    epsilon=st.sampled_from([0.1, 1.0, 8.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_pick_depends_only_on_its_row_and_uniforms(rows, epsilon, seed):
    """Each row's pick in a batch equals its pick alone, from its dense
    twin, from its float32 twin and among repeats of itself."""
    mechanism = ExponentialMechanism(epsilon, sensitivity=1.0)
    uniforms = make_uniforms(seed, len(rows))
    batch = mechanism.recommend_vectors(rows, uniforms)
    dense = [UtilityVector(v.target, v.candidates, v.values, v.target_degree) for v in rows]
    narrow = [v._with_values(v.support()[1].astype(np.float32)) for v in rows]
    np.testing.assert_array_equal(mechanism.recommend_vectors(dense, uniforms), batch)
    np.testing.assert_array_equal(mechanism.recommend_vectors(narrow, uniforms), batch)
    for row, vector in enumerate(rows):
        assert mechanism.recommend_vectors([vector], uniforms[row:row + 1])[0] == batch[row]
    # A row object repeated in one call is weighed once; each request
    # still draws from its own uniforms.
    repeated = mechanism.recommend_vectors([rows[0]] * len(rows), uniforms)
    for row in range(len(rows)):
        alone = mechanism.recommend_vectors([rows[0]], uniforms[row:row + 1])[0]
        assert repeated[row] == alone
