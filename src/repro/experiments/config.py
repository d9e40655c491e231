"""Experiment configuration objects.

A single dataclass describes everything a figure run needs: which dataset
replica (and at what scale), which utility function, which privacy levels,
how targets are sampled, and whether to evaluate the Laplace mechanism
beside the Exponential one. Configurations are plain data — serializable
to JSON so result files are self-describing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from ..errors import ExperimentError

#: Names the runner understands for the ``dataset`` field.
KNOWN_DATASETS = ("wiki_vote", "twitter", "synthetic")
#: Names the runner understands for the ``utility`` field.
KNOWN_UTILITIES = ("common_neighbors", "weighted_paths")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one accuracy-vs-bound experiment.

    Defaults mirror the paper: 10% targets on Wiki-vote, 1% on Twitter,
    weighted paths truncated at length 3.
    ``scale`` and ``max_targets`` exist so test/benchmark runs finish in
    seconds; the full-paper setting is ``scale=1.0, max_targets=None``
    (a cap, when set, must be at least 1).

    ``include_laplace`` adds an exact Laplace accuracy column per epsilon
    (Section 7.2). It is the only Laplace switch: figures print Laplace
    series exactly when their run computed them, and the paper's figure
    configs leave it off, as the paper plots none.

    ``dataset="synthetic"`` builds a directed power-law graph with
    ``nodes`` nodes and exponent ``exponent`` straight into a frozen
    in-memory CSR (``scale`` is ignored there); it is the 10^6-node
    path — DESIGN.md "Scale dataflow".
    """

    dataset: str = "wiki_vote"
    scale: float = 0.1
    utility: str = "common_neighbors"
    gamma: float = 0.005
    max_path_length: int = 3
    epsilons: tuple[float, ...] = (0.5, 1.0)
    target_fraction: float = 0.1
    max_targets: "int | None" = 150
    include_laplace: bool = True
    seed: int = 7
    nodes: "int | None" = None
    exponent: float = 2.2
    name: str = ""
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dataset not in KNOWN_DATASETS:
            raise ExperimentError(
                f"unknown dataset {self.dataset!r}; known: {KNOWN_DATASETS}"
            )
        if self.utility not in KNOWN_UTILITIES:
            raise ExperimentError(
                f"unknown utility {self.utility!r}; known: {KNOWN_UTILITIES}"
            )
        if not 0.0 < self.scale <= 1.0:
            raise ExperimentError(f"scale must be in (0, 1], got {self.scale}")
        if not self.epsilons:
            raise ExperimentError("at least one epsilon is required")
        if any(eps <= 0 for eps in self.epsilons):
            raise ExperimentError(f"epsilons must be positive, got {self.epsilons}")
        if not 0.0 < self.target_fraction <= 1.0:
            raise ExperimentError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )
        if self.max_targets is not None and not self.max_targets >= 1:
            raise ExperimentError(f"max_targets must be >= 1, got {self.max_targets}")
        if self.dataset == "synthetic":
            if self.nodes is None or self.nodes < 2:
                raise ExperimentError(
                    "the synthetic dataset needs nodes >= 2, got "
                    f"{self.nodes!r}"
                )
            if self.exponent <= 1.0:
                raise ExperimentError(
                    f"power-law exponent must be > 1, got {self.exponent}"
                )

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        data = asdict(self)
        data["epsilons"] = list(self.epsilons)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`.

        Raises :class:`~repro.errors.ExperimentError` naming any key that
        is not a field of this config.
        """
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ExperimentError(
                f"unknown experiment config keys: {', '.join(map(str, unknown))}"
            )
        data = dict(data)
        data["epsilons"] = tuple(data.get("epsilons", (1.0,)))
        if "max_targets" in data and data["max_targets"] is not None:
            data["max_targets"] = int(data["max_targets"])
        if "nodes" in data and data["nodes"] is not None:
            data["nodes"] = int(data["nodes"])
        return cls(**data)


def paper_config_figure_1a(scale: float = 0.1, max_targets: "int | None" = 150) -> ExperimentConfig:
    """Figure 1(a): Wiki-vote, common neighbors, epsilon in {0.5, 1}."""
    return ExperimentConfig(
        dataset="wiki_vote",
        scale=scale,
        utility="common_neighbors",
        epsilons=(0.5, 1.0),
        target_fraction=0.1,
        max_targets=max_targets,
        include_laplace=False,
        name="figure_1a",
    )


def paper_config_figure_1b(scale: float = 0.02, max_targets: "int | None" = 150) -> ExperimentConfig:
    """Figure 1(b): Twitter, common neighbors, epsilon in {1, 3}."""
    return ExperimentConfig(
        dataset="twitter",
        scale=scale,
        utility="common_neighbors",
        epsilons=(1.0, 3.0),
        target_fraction=0.01,
        max_targets=max_targets,
        include_laplace=False,
        name="figure_1b",
    )


def paper_config_figure_2a(
    gamma: float, scale: float = 0.1, max_targets: "int | None" = 150
) -> ExperimentConfig:
    """Figure 2(a): Wiki-vote, weighted paths (per-gamma), epsilon = 1."""
    return ExperimentConfig(
        dataset="wiki_vote",
        scale=scale,
        utility="weighted_paths",
        gamma=gamma,
        epsilons=(1.0,),
        target_fraction=0.1,
        max_targets=max_targets,
        include_laplace=False,
        name=f"figure_2a_gamma_{gamma:g}",
    )


def paper_config_figure_2b(
    gamma: float, scale: float = 0.02, max_targets: "int | None" = 150
) -> ExperimentConfig:
    """Figure 2(b): Twitter, weighted paths (per-gamma), epsilon = 1."""
    return ExperimentConfig(
        dataset="twitter",
        scale=scale,
        utility="weighted_paths",
        gamma=gamma,
        epsilons=(1.0,),
        target_fraction=0.01,
        max_targets=max_targets,
        include_laplace=False,
        name=f"figure_2b_gamma_{gamma:g}",
    )


def paper_config_figure_2c(scale: float = 0.1, max_targets: "int | None" = 300) -> ExperimentConfig:
    """Figure 2(c): Wiki-vote, common neighbors, epsilon = 0.5, degree study."""
    return ExperimentConfig(
        dataset="wiki_vote",
        scale=scale,
        utility="common_neighbors",
        epsilons=(0.5,),
        target_fraction=0.1,
        max_targets=max_targets,
        include_laplace=False,
        name="figure_2c",
    )
