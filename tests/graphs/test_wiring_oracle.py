"""Array-built replicas against the loop oracle, the CSR installed at construction, and the replica pins."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import DEFAULT_TWITTER_SEED, DEFAULT_WIKI_SEED, twitter, wiki_vote
from repro.errors import DatasetError
from repro.graphs.generators import powerlaw, random_graphs, replicas
from repro.graphs.graph import SocialGraph
from repro.streaming import MutableSocialGraph
from repro.streaming.events import synthetic_event_stream
from tests.graphs import loop_generators as loop

SEEDS = st.integers(0, 2**32 - 1)

#: SHA-256 of ``np.asarray(sorted(g.edges()), dtype="<i8").tobytes()`` for
#: the default-seed replicas, as the one-try_add_edge-per-pair wiring built them.
REPLICA_DIGESTS = {
    ("wiki_vote", 0.05): "1fa1c1ac69955aaea7860e6a6d5c7dc9ec2a06127654ae3e8e69cfb3ee6d7d8c",
    ("wiki_vote", 0.3): "9bdc12dd1611d8e3f157ebfc528c6e66e0dc64bf8a4b6116c5ae797ce0c359d7",
    ("wiki_vote", 1.0): "45304cc6a9ec72a79289cf25b006fee364a00ca230bbca427b75fa3a0b52c3db",
    ("twitter", 0.05): "06d09fd3167b78691c9ba4b344ae901910b9628b296b4d0f67d3fa7b0858e082",
    ("twitter", 0.3): "56ab2afc2b5135443e8b5c624517785e1790768450dc3f351e2e0c6aa6a0a19d",
    ("twitter", 1.0): "0836bdaa96f2ba56ed2ca0faeccaeb7d373c4bc52818b42a9220ed48720f0c28",
}
SPECS = {"wiki_vote": replicas.wiki_vote_spec, "twitter": replicas.twitter_spec}
DEFAULT_SEEDS = {"wiki_vote": DEFAULT_WIKI_SEED, "twitter": DEFAULT_TWITTER_SEED}


def assert_csr_equal(actual, expected) -> None:
    for name in ("indptr", "indices", "data"):
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


def assert_same_graph(actual: SocialGraph, expected: SocialGraph) -> None:
    """Same edges, predecessors, degrees and version; the installed CSR is ``_build_csr``'s."""
    assert actual == expected
    assert actual._pred == expected._pred
    assert actual.version == expected.version
    assert actual.num_edges == expected.num_edges
    assert np.array_equal(actual.degrees(), expected.degrees())
    assert actual.degrees().dtype == expected.degrees().dtype
    assert_csr_equal(actual.adjacency_matrix(), actual._build_csr())


def run_both(build, seed):
    """``build(module, rng)`` for the loop oracle and the array version.

    Returns both results (or the error raised) and both generators'
    final states. An all-zero sequence with ``d_min=0`` divides by zero
    on both sides.
    """
    outcomes = []
    for module in (loop, None):
        rng = np.random.default_rng(seed)
        try:
            result = build(module, rng)
        except (DatasetError, ZeroDivisionError) as error:
            result = f"{type(error).__name__}: {error}"
        outcomes.append((result, rng.bit_generator.state))
    return outcomes


@settings(max_examples=100, deadline=None)
@given(
    degrees=st.lists(st.integers(0, 30), max_size=30),
    target=st.integers(0, 600),
    d_min=st.integers(0, 3),
    d_max=st.none() | st.integers(0, 40),
    seed=SEEDS,
)
@example(degrees=[30, 1, 1], target=90, d_min=1, d_max=40, seed=0)  # many passes
@example(degrees=[5, 5, 5], target=3, d_min=2, d_max=None, seed=1)  # shrink at the floor
@example(degrees=[4, 4], target=200, d_min=1, d_max=10, seed=2)  # the visit guard
@example(degrees=[0, 0, 0], target=7, d_min=1, d_max=None, seed=3)  # all-zero input
@example(degrees=[0, 0], target=7, d_min=0, d_max=None, seed=3)  # ... with d_min=0
@example(degrees=[3, 1], target=9, d_min=5, d_max=4, seed=4)  # d_max below d_min
def test_scale_to_edge_total_matches_the_loop(degrees, target, d_min, d_max, seed):
    def build(module, rng):
        scale = (module or powerlaw).scale_to_edge_total
        return scale(degrees, target, d_min=d_min, d_max=d_max, seed=rng).tolist()

    expected, actual = run_both(build, seed)
    assert actual == expected


GUARD = "DatasetError: could not match target edge total within degree caps"


@pytest.mark.parametrize(
    "degrees, target, d_max, outcome",
    [
        ([4, 4], 200, 10, GUARD),  # no room left: the guard ends the visits
        # Only node 0 has room. Seed 0 visits it first of two, so step 550
        # lands on 0-based visit 1098 and step 551 would open the pass at
        # visit 1100 = 50 * 2 + 1000, the first one past the guard; and
        # second of three, so step 383 lands on visit 1147 and step 384
        # would land mid-pass on visit 1150 = 50 * 3 + 1000.
        ([1, 1000], 1551, 1000, [551, 1000]),
        ([1, 1000], 1552, 1000, GUARD),
        ([1, 1000, 1000], 2384, 1000, [384, 1000, 1000]),
        ([1, 1000, 1000], 2385, 1000, GUARD),
    ],
)
def test_the_visit_guard_raises_on_both_sides(degrees, target, d_max, outcome):
    [(expected, expected_state), (actual, actual_state)] = run_both(
        lambda module, rng: (module or powerlaw).scale_to_edge_total(
            degrees, target, d_max=d_max, seed=rng
        ).tolist(),
        seed=0,
    )
    assert expected == actual == outcome
    assert expected_state == actual_state


def undirected_sequences():
    """Small degree sequences with hubs: odd totals, collisions, leftovers."""
    return st.tuples(
        st.lists(st.integers(0, 6), min_size=1, max_size=25),
        st.lists(st.integers(8, 60), max_size=3),
    ).map(lambda parts: parts[0] + parts[1])


def directed_sequences():
    return st.integers(1, 25).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 40), min_size=n, max_size=n),
            st.lists(st.integers(0, 40), min_size=n, max_size=n),
        )
    )


# Hubs on few nodes: pairs collide every round, and at max_rounds the
# leftovers are dropped.
LEFTOVER_CASES = [([12, 12, 1, 1, 1], 2), ([9, 9, 9, 1, 1, 2], 20), ([7, 1, 1], 20)]


def wire_undirected(degrees, max_rounds):
    def build(module, rng):
        model = (module or random_graphs).configuration_model
        return model(degrees, seed=rng, max_rounds=max_rounds)

    return build


def wire_directed(out_degrees, in_degrees, max_rounds):
    def build(module, rng):
        model = (module or random_graphs).directed_configuration_model
        return model(out_degrees, in_degrees, seed=rng, max_rounds=max_rounds)

    return build


def assert_same_wiring(build, seed) -> None:
    [(expected, expected_state), (actual, actual_state)] = run_both(build, seed)
    assert_same_graph(actual, expected)
    assert actual_state == expected_state


@settings(max_examples=100, deadline=None)
@given(degrees=undirected_sequences(), max_rounds=st.integers(1, 20), seed=SEEDS)
@example(degrees=[3, 2, 2], max_rounds=20, seed=5)  # odd stub total
@example(degrees=[40, 3, 3, 3, 3], max_rounds=20, seed=6)  # a hub needing many rounds
def test_configuration_model_matches_the_loop(degrees, max_rounds, seed):
    assert_same_wiring(wire_undirected(degrees, max_rounds), seed)


@settings(max_examples=100, deadline=None)
@given(sequences=directed_sequences(), max_rounds=st.integers(1, 20), seed=SEEDS)
@example(sequences=([30, 1, 1, 1], [1, 30, 1, 1]), max_rounds=20, seed=7)  # hubs
@example(sequences=([5, 0, 0], [0, 3, 1]), max_rounds=20, seed=8)  # unequal totals
def test_directed_configuration_model_matches_the_loop(sequences, max_rounds, seed):
    assert_same_wiring(wire_directed(*sequences, max_rounds), seed)


@pytest.mark.parametrize("degrees, max_rounds", LEFTOVER_CASES)
def test_leftovers_at_max_rounds_are_dropped_alike(degrees, max_rounds):
    assert_same_wiring(wire_undirected(degrees, max_rounds), seed=9)
    graph = random_graphs.configuration_model(degrees, seed=9, max_rounds=max_rounds)
    assert 2 * graph.num_edges < sum(degrees) - 1  # more than the odd stub was dropped
    assert_same_wiring(wire_directed(degrees, degrees[::-1], max_rounds), seed=9)


REPLICAS = [(name, scale) for name in SPECS for scale in (0.05, 0.3, 1.0)]


@pytest.fixture(scope="module", params=REPLICAS, ids=lambda case: f"{case[0]}-{case[1]:g}")
def replica(request):
    """The default-seed replica built from arrays, and its generator's final state."""
    name, scale = request.param
    rng = np.random.default_rng(DEFAULT_SEEDS[name])
    graph = replicas.build_replica(SPECS[name](scale), seed=rng)
    return name, scale, graph, rng.bit_generator.state


def test_replica_matches_the_loop_oracle(replica, monkeypatch):
    name, scale, graph, state = replica
    monkeypatch.setattr(replicas, "scale_to_edge_total", loop.scale_to_edge_total)
    monkeypatch.setattr(replicas, "configuration_model", loop.configuration_model)
    monkeypatch.setattr(
        replicas, "directed_configuration_model", loop.directed_configuration_model
    )
    rng = np.random.default_rng(DEFAULT_SEEDS[name])
    expected = replicas.build_replica(SPECS[name](scale), seed=rng)
    assert_same_graph(graph, expected)
    assert state == rng.bit_generator.state


def test_replica_edge_digest_is_pinned(replica):
    name, scale, graph, _ = replica
    edges = np.asarray(sorted(graph.edges()), dtype="<i8")
    assert hashlib.sha256(edges.tobytes()).hexdigest() == REPLICA_DIGESTS[name, scale]


def test_public_builders_are_the_default_seed_replicas():
    rng = np.random.default_rng(DEFAULT_WIKI_SEED)
    assert wiki_vote(0.05) == replicas.build_replica(replicas.wiki_vote_spec(0.05), seed=rng)
    rng = np.random.default_rng(DEFAULT_TWITTER_SEED)
    assert twitter(0.05) == replicas.build_replica(replicas.twitter_spec(0.05), seed=rng)


@pytest.mark.parametrize(
    "build", [lambda: wiki_vote(0.1), lambda: twitter(0.05)], ids=["wiki_vote", "twitter"]
)
def test_edges_ascend_whatever_order_the_sets_were_filled_in(build):
    graph = build()
    pairs = list(graph.edges())
    assert pairs == sorted(pairs)
    refilled = SocialGraph(graph.num_nodes, directed=graph.is_directed)
    for index in np.random.default_rng(1).permutation(len(pairs)):
        u, v = pairs[index]
        refilled.add_edge(*((v, u) if not graph.is_directed and index % 2 else (u, v)))
    assert refilled == graph
    assert list(refilled.edges()) == pairs
    assert list(SocialGraph.from_edges(np.asarray(pairs[::-1]), graph.num_nodes,
                                       graph.is_directed).edges()) == pairs
    assert synthetic_event_stream(refilled, 2000, seed=7) == synthetic_event_stream(
        graph, 2000, seed=7
    )


@pytest.mark.parametrize(
    "build", [lambda: wiki_vote(0.3), lambda: twitter(0.05)], ids=["wiki_vote", "twitter"]
)
def test_overlay_adopts_the_installed_csr_and_compacts_from_the_fold(build):
    graph = build()
    overlay = MutableSocialGraph.from_graph(graph)
    assert overlay.adjacency_matrix() is graph.adjacency_matrix()
    assert_same_graph(overlay, graph)
    rng = np.random.default_rng(3)
    edges = list(graph.edges())
    for step in range(256):
        if step % 2:
            overlay.try_remove_edge(*edges[int(rng.integers(len(edges)))])
        else:
            overlay.try_add_edge(*(int(x) for x in rng.integers(graph.num_nodes, size=2)))
    assert overlay.delta_size > 0
    fold = overlay.adjacency_matrix()
    overlay.compact()
    assert overlay.delta_size == 0 and overlay.stamp[0] == 1
    assert overlay.adjacency_matrix() is fold
    assert_csr_equal(fold, overlay._build_csr())
    assert np.array_equal(overlay.degrees(), np.diff(overlay._build_csr().indptr))
