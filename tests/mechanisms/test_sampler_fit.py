"""Exact-pmf goodness of fit for the samplers.

``ExponentialMechanism.recommend_vectors`` draws by inverse CDF from two
uniforms per row: the first picks a cell among the positive-utility
candidates and one grouped cell for the zero bucket ``Z``, the second a
uniform rank inside ``Z`` when that cell wins. Single ``recommend`` calls
and the serving layer run the same kernel. ``LaplaceMechanism.recommend``
adds Laplace noise to every candidate and takes the argmax, and
``SmoothingMechanism`` mixes its base's draw with a uniform one. These
tests hold each sampler's draws against the mechanism's exact
``probabilities``: a G-test over the support with the zero bucket pooled
into one category, and a G-test of uniformity over the bucket's members.
The exponential draws are taken at the mechanism and through every served
path: batches on missed and resident rows, a streaming service's patched
rows and single ``recommend`` calls. Seeds are fixed, so pass/fail is
deterministic; ``ALPHA`` is the level each test rejects at.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import chi2

from repro import RecommendationService, StreamingService
from repro.compute import utility_vectors
from repro.datasets import wiki_vote
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.smoothing import SmoothingMechanism
from repro.serving import service as service_module
from repro.streaming import KIND_ADD, KIND_REMOVE, StreamEvent
from repro.utility.base import UtilityVector
from repro.utility.common_neighbors import CommonNeighbors
from tests.conftest import make_uniforms

DRAWS = 20_000
ALPHA = 1e-3
#: Cells expected to hold fewer draws are pooled, as the G-test requires.
MIN_EXPECTED = 5.0


@lru_cache(maxsize=None)
def _wiki_row() -> UtilityVector:
    graph = wiki_vote(scale=0.05)
    vectors = utility_vectors(graph, CommonNeighbors(), range(graph.num_nodes))
    # A row with several positive utilities and a populated zero bucket.
    return next(v for v in vectors if 4 <= v.support()[0].size <= 30)


#: name -> (support-form row, epsilon, seed). Sensitivity is 1 throughout.
CASES = {
    "mixed": (
        lambda: UtilityVector.from_support(0, [2, 5, 9, 11], [3.0, 1.0, 2.0, 1.0],
                                           [0, 1, 4], 14, 2),
        1.0, 11,
    ),
    "wiki_row": (_wiki_row, 0.5, 12),
    "empty_zero_bucket": (
        lambda: UtilityVector.from_support(3, [0, 1, 2, 5], [1.0, 2.0, 0.5, 3.0],
                                           [3, 4], 6, 1),
        0.8, 13,
    ),
    "empty_support": (
        lambda: UtilityVector.from_support(0, [], [], [0, 3], 10, 1),
        1.0, 14,
    ),
    "negligible_bucket": (
        lambda: UtilityVector.from_support(0, [2, 6], [4.0, 2.0], [0, 1], 9, 1),
        40.0, 15,
    ),
}


def _row(case: str, form: str, dtype: str) -> "tuple[UtilityVector, float, int]":
    """The case's row with its utilities stored at ``dtype``.

    Serving fills float64 rows; float32 ones are still valid input to
    the public mechanism API, so the sampler is held to the pmf at both.
    """
    build, epsilon, seed = CASES[case]
    vector = build()
    vector = vector._with_values(vector.support()[1].astype(dtype))
    if form == "dense":
        vector = UtilityVector(
            vector.target, vector.candidates, vector.values, vector.target_degree
        )
    return vector, epsilon, seed


def g_test_pvalue(observed: np.ndarray, probabilities: np.ndarray) -> float:
    """p-value of a G-test of ``observed`` counts against ``probabilities``."""
    expected = probabilities / probabilities.sum() * observed.sum()
    small = expected < MIN_EXPECTED
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    seen = observed > 0
    statistic = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    dof = observed.size - 1
    return float(chi2.sf(statistic, dof)) if dof > 0 else 1.0


def _position_counts(vector: UtilityVector, picks) -> np.ndarray:
    """Draw counts per candidate position of ``vector``."""
    picks = np.asarray(picks)
    candidates = vector.candidates
    positions = np.searchsorted(candidates, picks)
    assert (candidates[np.minimum(positions, candidates.size - 1)] == picks).all()
    return np.bincount(positions, minlength=candidates.size)


@lru_cache(maxsize=None)
def _draw_counts(case: str, form: str, dtype: str) -> np.ndarray:
    """Draw counts per candidate position of the case's row."""
    vector, epsilon, seed = _row(case, form, dtype)
    mechanism = ExponentialMechanism(epsilon, sensitivity=1.0)
    picks = mechanism.recommend_vectors([vector] * DRAWS, make_uniforms(seed, DRAWS))
    return _position_counts(vector, picks)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("form", ["support", "dense"])
@pytest.mark.parametrize("case", sorted(CASES))
class TestExactPmfFit:
    def test_pooled_bucket_matches_probabilities(self, case, form, dtype):
        vector, epsilon, seed = _row(case, form, dtype)
        exact = ExponentialMechanism(epsilon, sensitivity=1.0).probabilities(vector)
        counts = _draw_counts(case, form, dtype)
        support = vector.values > 0
        observed = np.append(counts[support], counts[~support].sum())
        expected = np.append(exact[support], exact[~support].sum())
        assert g_test_pvalue(observed, expected) > ALPHA

    def test_uniform_inside_zero_bucket(self, case, form, dtype):
        vector = _row(case, form, dtype)[0]
        bucket = _draw_counts(case, form, dtype)[vector.values == 0]
        if case == "empty_zero_bucket":
            assert bucket.size == 0
            return
        if case == "negligible_bucket":
            assert bucket.sum() == 0  # bucket mass is ~5e-70 here
            return
        assert g_test_pvalue(bucket, np.ones(bucket.size)) > ALPHA


#: name -> mechanism at a case's epsilon (sensitivity 1), drawn from one
#: ``recommend`` call at a time.
RECOMMENDERS = {
    "laplace": lambda epsilon: LaplaceMechanism(epsilon, sensitivity=1.0),
    "smoothing_laplace": lambda epsilon: SmoothingMechanism(
        0.7, base=LaplaceMechanism(epsilon, sensitivity=1.0)
    ),
}


def _recommend_counts(mechanism, vector: UtilityVector, seed: int) -> np.ndarray:
    """Draw counts per candidate position of ``DRAWS`` ``recommend`` calls."""
    rng = np.random.default_rng(seed)
    return _position_counts(
        vector, [mechanism.recommend(vector, seed=rng) for _ in range(DRAWS)]
    )


@lru_cache(maxsize=None)
def _recommender_counts(sampler: str, case: str, form: str) -> np.ndarray:
    vector, epsilon, seed = _row(case, form, "float64")
    return _recommend_counts(RECOMMENDERS[sampler](epsilon), vector, seed)


@pytest.mark.parametrize("form", ["support", "dense"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("sampler", sorted(RECOMMENDERS))
class TestRecommendFit:
    """The Laplace sampler, alone and as a smoothing base, against the
    exact grouped-integral probabilities."""

    def test_pooled_bucket_matches_probabilities(self, sampler, case, form):
        vector, epsilon, _ = _row(case, form, "float64")
        exact = RECOMMENDERS[sampler](epsilon).probabilities(vector)
        counts = _recommender_counts(sampler, case, form)
        support = vector.values > 0
        observed = np.append(counts[support], counts[~support].sum())
        expected = np.append(exact[support], exact[~support].sum())
        assert g_test_pvalue(observed, expected) > ALPHA

    def test_uniform_inside_zero_bucket(self, sampler, case, form):
        vector, epsilon, _ = _row(case, form, "float64")
        zero = vector.values == 0
        bucket = _recommender_counts(sampler, case, form)[zero]
        if bucket.sum() == 0:
            exact = RECOMMENDERS[sampler](epsilon).probabilities(vector)
            assert exact[zero].sum() < 1e-12  # empty or negligible bucket
            return
        assert g_test_pvalue(bucket, np.ones(bucket.size)) > ALPHA


def test_forms_and_dtypes_draw_identically():
    """The same uniforms, one row: the pick does not depend on the storage
    form, and float32 rows of integer utilities match float64 ones."""
    picks = set()
    for form in ("support", "dense"):
        for dtype in ("float64", "float32"):
            vector, epsilon, seed = _row("mixed", form, dtype)
            mechanism = ExponentialMechanism(epsilon, sensitivity=1.0)
            picks.add(tuple(mechanism.recommend_vectors([vector] * 500, make_uniforms(seed, 500))))
    assert len(picks) == 1


def test_fit_detects_a_biased_sampler():
    """The G-test has power at this draw count: dropping the bucket's
    ``log|Z|`` term (treating the bucket as one candidate) is rejected,
    and so is Laplace noise at half its scale."""
    vector, epsilon, seed = _row("mixed", "support", "float64")
    exact = ExponentialMechanism(epsilon, sensitivity=1.0).probabilities(vector)
    support = vector.values > 0
    expected = np.append(exact[support], exact[~support].sum())
    biased = np.append(np.exp(epsilon * vector.support()[1]), 1.0)
    rng = np.random.default_rng(seed)
    observed = np.bincount(
        rng.choice(biased.size, size=DRAWS, p=biased / biased.sum()),
        minlength=biased.size,
    )
    assert g_test_pvalue(observed, expected) < ALPHA

    # A Laplace sampler whose noise scale is halved is rejected too.
    exact = LaplaceMechanism(epsilon, sensitivity=1.0).probabilities(vector)
    counts = _recommend_counts(LaplaceMechanism(2.0 * epsilon, sensitivity=1.0), vector, seed)
    observed = np.append(counts[support], counts[~support].sum())
    expected = np.append(exact[support], exact[~support].sum())
    assert g_test_pvalue(observed, expected) < ALPHA


# ---------------------------------------------------------------------------
# The served path: what clients receive, against the live graph's pmf.
# ---------------------------------------------------------------------------
#: Degree 4 on wiki-vote at scale 0.05: 142 positive common-neighbour
#: counts (1 to 4) and a 209-candidate zero bucket holding ~48% of the
#: mass at epsilon 0.5, so both pooled cells and the bucket see draws.
SERVED_USER = 6
SERVED_EPSILON = 0.5
#: name -> service seed. Each path draws ``DRAWS`` picks for SERVED_USER.
SERVED_PATHS = {"batch_miss": 31, "batch_resident": 32, "stream_patched": 33, "single": 34}


def _served_service(seed: int) -> RecommendationService:
    return RecommendationService(
        wiki_vote(scale=0.05), epsilon=SERVED_EPSILON, user_budget=1e9, seed=seed
    )


def _served_picks(responses) -> np.ndarray:
    assert all(response.served for response in responses)
    return np.asarray([response.recommendations[0] for response in responses])


def _reference(service: RecommendationService) -> "tuple[UtilityVector, np.ndarray]":
    """SERVED_USER's reference row on the service's live graph, and the
    service mechanism's exact pmf over it."""
    vector = CommonNeighbors().utility_vector(service.graph, SERVED_USER)
    return vector, service.mechanism.probabilities(vector)


def _edge_churn(graph) -> "list[StreamEvent]":
    """One removal and two additions at the served user's neighbours: each
    changes common-neighbour counts in the user's row but touches no
    endpoint of it, so a patching cache patches the row in place."""
    first, second = sorted(graph.neighbors(SERVED_USER))[:2]
    removed = min(set(graph.neighbors(first)) - {SERVED_USER})
    taken = set(graph.neighbors(SERVED_USER)) | {SERVED_USER, first, second}
    added = [
        min(set(range(graph.num_nodes)) - taken - set(graph.neighbors(node)))
        for node in (first, second)
    ]
    return [
        StreamEvent(0.0, KIND_REMOVE, u=first, v=removed),
        StreamEvent(1.0, KIND_ADD, u=first, v=added[0]),
        StreamEvent(2.0, KIND_ADD, u=second, v=added[1]),
    ]


@lru_cache(maxsize=None)
def _served_draws(path: str) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(counts, exact, bucket)``: DRAWS served picks of SERVED_USER down
    ``path`` per candidate position, the exact pmf they are held to, and
    the zero bucket's positions."""
    seed = SERVED_PATHS[path]
    if path == "stream_patched":
        stream = StreamingService(
            wiki_vote(scale=0.05), epsilon=SERVED_EPSILON, user_budget=1e9, seed=seed
        )
        before = CommonNeighbors().utility_vector(stream.graph, SERVED_USER).values
        stream.recommend_batch([SERVED_USER])
        for event in _edge_churn(stream.graph):
            assert stream.apply_edge_event(event)
        picks = _served_picks(stream.recommend_batch([SERVED_USER] * DRAWS))
        assert stream.cache.snapshot()["patched_rows"] >= 1
        service = stream
        assert not np.array_equal(_reference(service)[0].values, before)
    elif path == "single":
        service = _served_service(seed)
        picks = [service.recommend(SERVED_USER).recommendations[0] for _ in range(DRAWS)]
    else:
        service = _served_service(seed)
        if path == "batch_resident":
            service.recommend_batch([SERVED_USER])
        responses = service.recommend_batch([SERVED_USER] * DRAWS)
        assert {r.cache_hit for r in responses} == {path == "batch_resident"}
        picks = _served_picks(responses)
    vector, exact = _reference(service)
    bucket = vector.values == 0
    assert 0.2 < exact[bucket].sum() < 0.8
    return _position_counts(vector, picks), exact, bucket


def _pooled_pvalue(counts: np.ndarray, exact: np.ndarray, bucket: np.ndarray) -> float:
    """G-test p-value over the support with the zero bucket pooled."""
    observed = np.append(counts[~bucket], counts[bucket].sum())
    expected = np.append(exact[~bucket], exact[bucket].sum())
    return g_test_pvalue(observed, expected)


def _bucket_pvalue(counts: np.ndarray, bucket: np.ndarray) -> float:
    """G-test p-value of uniformity over the zero bucket's members."""
    return g_test_pvalue(counts[bucket], np.ones(int(bucket.sum())))


@pytest.mark.parametrize("path", sorted(SERVED_PATHS))
class TestServedFit:
    def test_pooled_bucket_matches_probabilities(self, path):
        assert _pooled_pvalue(*_served_draws(path)) > ALPHA

    def test_uniform_inside_zero_bucket(self, path):
        counts, _, bucket = _served_draws(path)
        assert _bucket_pvalue(counts, bucket) > ALPHA


def test_served_fit_detects_a_biased_kernel(monkeypatch):
    """Power on the served path: a kernel that drops the bucket cell fails
    the pooled test, and one that takes the bucket rank from the first
    uniform instead of the second fails the within-bucket test."""
    with monkeypatch.context() as patch:
        patch.setattr(UtilityVector, "zero_count", property(lambda vector: 0))
        service = _served_service(35)
        picks = _served_picks(service.recommend_batch([SERVED_USER] * DRAWS))
    vector, exact = _reference(service)
    assert _pooled_pvalue(_position_counts(vector, picks), exact, vector.values == 0) < ALPHA

    kernel = service_module._sample_chunk
    monkeypatch.setattr(
        service_module, "_sample_chunk",
        lambda mechanism, payload: kernel(mechanism, (payload[0], payload[1][:, [0, 0]])),
    )
    service = _served_service(36)
    picks = _served_picks(service.recommend_batch([SERVED_USER] * DRAWS))
    vector, exact = _reference(service)
    counts, bucket = _position_counts(vector, picks), vector.values == 0
    assert _pooled_pvalue(counts, exact, bucket) > ALPHA  # the cell choice is still right
    assert _bucket_pvalue(counts, bucket) < ALPHA


# ---------------------------------------------------------------------------
# Served top-k: ordered pick pairs of recommend(SERVED_USER, k=2).
# ---------------------------------------------------------------------------
#: Service seed of the top-k fit; its power checks use the next two.
TOP_K_SEED = 37
#: Draws per power check: each biased peel repeats a pick in ~0.2-0.3% of
#: requests here (6.3 and 4.6 repeats expected), and one repeat rejects.
POWER_DRAWS = 2_000


def _served_pairs(seed: int, draws: int) -> "tuple[np.ndarray, RecommendationService]":
    """``draws`` ordered pick pairs of served ``recommend(SERVED_USER, k=2)``."""
    service = _served_service(seed)
    responses = [service.recommend(SERVED_USER, k=2) for _ in range(draws)]
    assert all(response.served for response in responses)
    return np.asarray([response.recommendations for response in responses]), service


def _pair_pvalue(pairs: np.ndarray, service: RecommendationService) -> float:
    """G-test p-value of ordered pick pairs against the exact peeling pmf.

    Peeling draws ``i`` with the softmax ``p(i)``, then ``j != i`` with
    ``p(j) / (1 - p(i))``. Cells are (first, second) pairs of support
    candidates, with the zero bucket pooled into one cell in either
    position (the bucket-bucket cell holds ordered pairs of distinct
    members). A repeated pick has probability zero, so one repeat makes
    the G statistic infinite: the p-value is then 0.
    """
    if (pairs[:, 0] == pairs[:, 1]).any():
        return 0.0
    vector, exact = _reference(service)
    bucket = vector.values == 0
    support = vector.candidates[~bucket]
    zeros = int(bucket.sum())
    p_zero = float(exact[bucket][0])
    cells = support.size + 1  # support candidates, then the pooled bucket

    def cell(nodes: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(support, nodes), support.size - 1)
        return np.where(support[at] == nodes, at, support.size)

    first = np.append(exact[~bucket], zeros * p_zero)
    # Mass a first pick in each cell removes: itself, one bucket member.
    taken = np.append(exact[~bucket], p_zero)
    second = first[None, :] / (1.0 - taken)[:, None]
    np.fill_diagonal(second[:-1, :-1], 0.0)
    second[-1, -1] = (zeros - 1) * p_zero / (1.0 - p_zero)
    expected = (first[:, None] * second).ravel()
    observed = np.bincount(cell(pairs[:, 0]) * cells + cell(pairs[:, 1]), minlength=cells**2)
    possible = expected > 0
    return g_test_pvalue(observed[possible], expected[possible])


def test_served_top_k_pairs_match_the_peeling_pmf():
    pairs, service = _served_pairs(TOP_K_SEED, DRAWS)
    assert _pair_pvalue(pairs, service) > ALPHA


def _pick_left_in_row(vector: UtilityVector, node: int) -> UtilityVector:
    return vector


def _pick_kept_as_zero(vector: UtilityVector, node: int) -> UtilityVector:
    ids, values = vector.support()
    keep = ids != node
    return vector.with_support(ids[keep], values[keep], vector.metadata)


@pytest.mark.parametrize(
    "peel, seed", [(_pick_left_in_row, TOP_K_SEED + 1), (_pick_kept_as_zero, TOP_K_SEED + 2)],
    ids=["pick_left_in_row", "pick_kept_as_zero"],
)
def test_served_top_k_fit_detects_a_biased_peel(monkeypatch, peel, seed):
    """Power on the top-k path: a peel that leaves the first pick in the
    row, and one that keeps it as a zero-utility candidate, both fail."""
    monkeypatch.setattr(UtilityVector, "without", peel)
    pairs, service = _served_pairs(seed, POWER_DRAWS)
    assert _pair_pvalue(pairs, service) < ALPHA
