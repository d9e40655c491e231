"""repro — reproduction of *Personalized Social Recommendations — Accurate
or Private?* (Machanavajjhala, Korolova, Das Sarma; PVLDB 4(7), 2011).

The library implements the paper end-to-end:

* a graph engine and generators (:mod:`repro.graphs`), including synthetic
  replicas of the Wikipedia-vote and Twitter datasets
  (:mod:`repro.datasets`);
* graph link-analysis utility functions with analytic sensitivities
  (:mod:`repro.utility`);
* the recommendation mechanisms of Section 6 and Appendix F —
  Exponential, Laplace, and linear smoothing — plus non-private baselines
  (:mod:`repro.mechanisms`);
* every theoretical bound: Lemma 1/Corollary 1, Lemma 2, Theorems 1-3 and
  5, and Appendix E's closed form (:mod:`repro.bounds`);
* axiom checkers for exchangeability, concentration, and monotonicity
  (:mod:`repro.axioms`);
* a passive edge-inference attack and empirical privacy audit
  (:mod:`repro.attacks`);
* the Section 7 experiment harness with one driver per paper figure
  (:mod:`repro.experiments`);
* a compute layer (:mod:`repro.compute`): the canonical batched
  utility/mechanism kernels over sparse support rows, with no
  ``rows x num_nodes`` block, bit-identical however targets are split;
* an online serving layer (:mod:`repro.serving`): a
  :class:`~repro.serving.service.RecommendationService` with per-user
  privacy-budget accounting, a version-keyed utility cache, and a
  batch path (sparse utility rows + O(support) inverse-CDF sampling),
  plus a synthetic-traffic replay harness behind the
  ``repro-social serve-sim`` CLI subcommand;
* a streaming layer (:mod:`repro.streaming`): a
  :class:`~repro.streaming.overlay.MutableSocialGraph` delta overlay
  over a frozen CSR base, cache rows patched from journaled score deltas,
  and a :class:`~repro.streaming.engine.StreamingService` that serves
  recommendation batches while the graph mutates — with an optional
  sliding-window privacy budget — behind the ``repro-social stream-sim``
  CLI subcommand;
* a telemetry plane (:mod:`repro.telemetry`): a lock-safe mergeable
  metrics registry (counters/gauges/histograms with Prometheus and JSON
  exporters), a sampling span tracer, and an append-only
  :class:`~repro.telemetry.ledger.PrivacyLedger` journaling every
  epsilon charge, refusal, and window expiry — reconcilable against the
  live accountants via ``verify_ledger()`` and surfaced by the
  ``repro-social metrics`` subcommand and ``--telemetry`` flags;
* a durability layer (:mod:`repro.durability`): a CRC-checksummed
  write-ahead log of edge events, serve charges, refusals, and window
  expiries, atomic numbered snapshots of the full service state, and a
  recovery path (``snapshot + WAL tail replay``) that rebuilds a
  :class:`~repro.streaming.engine.StreamingService` bit-identical to
  the uninterrupted run — proven by a deterministic crash-injection
  harness — behind ``repro-social stream-sim --wal`` and
  ``repro-social recover``;
* an HTTP edge (:mod:`repro.edge`): a stdlib-asyncio service boundary
  that coalesces concurrent single-user requests into the engine's
  vectorized batch path, applies admission control with typed and
  ledger-audited 429/503 rejections, serializes mutations against
  batches for bit-identical replay, and serves live Prometheus
  ``/metrics`` — behind ``repro-social serve``.

Quickstart::

    from repro import CommonNeighbors, ExponentialMechanism, datasets

    graph = datasets.wiki_vote(scale=0.05)
    utility = CommonNeighbors()
    vector = utility.utility_vector(graph, target=0)
    mechanism = ExponentialMechanism(epsilon=1.0, sensitivity=2.0)
    print(mechanism.recommend(vector, seed=0))
    print(mechanism.expected_accuracy(vector))

Serving quickstart::

    from repro import RecommendationService, datasets

    service = RecommendationService(
        datasets.wiki_vote(scale=0.05), epsilon=0.5, user_budget=2.0, seed=0
    )
    print(service.recommend(3))              # one audited private release
    print(service.recommend_batch(range(8))) # vectorized, one release each
"""

from . import (
    attacks,
    axioms,
    bounds,
    compute,
    datasets,
    durability,
    edge,
    experiments,
    extensions,
    graphs,
    mechanisms,
    serving,
    streaming,
    telemetry,
    utility,
)
from ._version import __version__
from .errors import (
    BoundError,
    BudgetExhaustedError,
    DatasetError,
    DurabilityError,
    EdgeError,
    EdgeServiceError,
    ExperimentError,
    GraphError,
    GraphFormatError,
    LedgerInconsistencyError,
    MechanismError,
    NodeError,
    PrivacyParameterError,
    RecoveryError,
    ReproError,
    ServingError,
    TelemetryError,
    UtilityError,
)
from .edge import EdgeServer
from .graphs import SocialGraph
from .serving import RecommendationRequest, RecommendationResponse, RecommendationService
from .streaming import MutableSocialGraph, StreamingService
from .telemetry import Telemetry
from .mechanisms import (
    BestMechanism,
    ExponentialMechanism,
    LaplaceMechanism,
    SmoothingMechanism,
    UniformMechanism,
)
from .rng import ensure_rng, spawn_rngs
from .utility import (
    AdamicAdar,
    CommonNeighbors,
    JaccardCoefficient,
    PersonalizedPageRank,
    PreferentialAttachment,
    UtilityVector,
    WeightedPaths,
)

__all__ = [
    "AdamicAdar",
    "BestMechanism",
    "BoundError",
    "BudgetExhaustedError",
    "CommonNeighbors",
    "DatasetError",
    "DurabilityError",
    "EdgeError",
    "EdgeServer",
    "EdgeServiceError",
    "ExperimentError",
    "ExponentialMechanism",
    "GraphError",
    "GraphFormatError",
    "JaccardCoefficient",
    "LaplaceMechanism",
    "LedgerInconsistencyError",
    "MechanismError",
    "MutableSocialGraph",
    "NodeError",
    "PersonalizedPageRank",
    "PreferentialAttachment",
    "PrivacyParameterError",
    "RecommendationRequest",
    "RecommendationResponse",
    "RecommendationService",
    "RecoveryError",
    "ReproError",
    "ServingError",
    "SmoothingMechanism",
    "SocialGraph",
    "StreamingService",
    "Telemetry",
    "TelemetryError",
    "UniformMechanism",
    "UtilityError",
    "UtilityVector",
    "WeightedPaths",
    "__version__",
    "attacks",
    "axioms",
    "bounds",
    "compute",
    "datasets",
    "durability",
    "edge",
    "ensure_rng",
    "experiments",
    "extensions",
    "graphs",
    "mechanisms",
    "serving",
    "spawn_rngs",
    "streaming",
    "telemetry",
    "utility",
]
