"""Figure drivers: one function per figure in the paper's evaluation.

Each driver runs the corresponding experiment and packages the same series
the paper plots:

* Figures 1(a)/1(b): accuracy CDFs of the Exponential mechanism and the
  theoretical bound for two privacy levels (common neighbors utility);
* Figures 2(a)/2(b): the same for the weighted-paths utility at two gammas
  and epsilon = 1;
* Figure 2(c): accuracy vs. target degree (Exponential + bound) on
  Wiki-vote at epsilon = 0.5.

``scale``/``max_targets`` default to CI-friendly values; pass ``scale=1.0,
max_targets=None`` for the full-size replicas. Laplace series are included
when ``include_laplace=True`` so the Section 7.2 "Laplace ~= Exponential"
observation can be read off the same result object. ``chunk_size``
chunks the batched engine through :mod:`repro.compute` (bit-identical
results; a pure wall-clock/memory knob), mirroring the CLI's
``--chunk-size``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .cdf import PAPER_ACCURACY_GRID, empirical_cdf
from .config import (
    ExperimentConfig,
    paper_config_figure_1a,
    paper_config_figure_1b,
    paper_config_figure_2a,
    paper_config_figure_2b,
    paper_config_figure_2c,
)
from .degree_analysis import accuracy_by_degree
from .results import FigureResult, Series
from .runner import ExperimentRun, build_graph, mechanism_key, run_experiment


def _with_overrides(
    config: ExperimentConfig,
    chunk_size: "int | None",
    dtype: "str | None" = None,
    backend: "str | None" = None,
    nodes: "int | None" = None,
    exponent: "float | None" = None,
) -> ExperimentConfig:
    """Apply only explicitly requested chunking/dtype/backend overrides.

    ``None`` means "keep the config's own value" — an explicitly passed
    ``config`` with ``chunk_size=128`` must not be silently reset to the
    default chunking by the drivers' parameter defaults.
    ``nodes`` swaps the dataset for the synthetic power-law builder at
    that size (the figure then reads on synthetic data rather than the
    paper replica — a scale study, not a paper reproduction).
    """
    overrides: dict = {}
    if chunk_size is not None:
        overrides["chunk_size"] = chunk_size
    if dtype is not None:
        overrides["dtype"] = dtype
    if backend is not None:
        overrides["backend"] = backend
    if nodes is not None:
        overrides["dataset"] = "synthetic"
        overrides["nodes"] = nodes
        if exponent is not None:
            overrides["exponent"] = exponent
    return replace(config, **overrides) if overrides else config


def _cdf_series(label: str, values: np.ndarray) -> Series:
    grid, fractions = empirical_cdf(values, PAPER_ACCURACY_GRID)
    return Series(label=label, x=tuple(grid.tolist()), y=tuple(fractions.tolist()))


def _metadata(run: ExperimentRun) -> dict:
    return {
        "config": run.config.to_dict(),
        "num_nodes": run.num_nodes,
        "num_edges": run.num_edges,
        "num_targets_sampled": run.num_targets_sampled,
        "num_targets_evaluated": run.num_targets_evaluated,
        "sensitivity": run.sensitivity,
        "elapsed_seconds": run.elapsed_seconds,
    }


def _cdf_figure(
    run: ExperimentRun,
    figure_id: str,
    title: str,
    include_laplace: bool,
) -> FigureResult:
    series: list[Series] = []
    for eps in run.config.epsilons:
        series.append(
            _cdf_series(
                f"Exponential eps={eps:g}",
                run.accuracies(mechanism_key("exponential", eps)),
            )
        )
        if include_laplace and run.config.include_laplace:
            series.append(
                _cdf_series(
                    f"Laplace eps={eps:g}",
                    run.accuracies(mechanism_key("laplace", eps)),
                )
            )
        series.append(_cdf_series(f"Theor. Bound eps={eps:g}", run.bounds(eps)))
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="Accuracy (1 - delta)",
        y_label="% of nodes with accuracy <= x",
        series=tuple(series),
        metadata=_metadata(run),
    )


def figure_1a(
    scale: float = 0.1,
    max_targets: "int | None" = 150,
    include_laplace: bool = False,
    config: "ExperimentConfig | None" = None,
    chunk_size: "int | None" = None,
    dtype: "str | None" = None,
    backend: "str | None" = None,
    nodes: "int | None" = None,
    exponent: "float | None" = None,
) -> FigureResult:
    """Figure 1(a): common neighbors on Wiki-vote, eps in {0.5, 1}."""
    if config is None:
        config = paper_config_figure_1a(scale=scale, max_targets=max_targets)
    config = _with_overrides(
        config, chunk_size, dtype, backend, nodes, exponent
    )
    run = run_experiment(config)
    return _cdf_figure(
        run,
        "figure_1a",
        "Accuracy CDF, common neighbors, Wikipedia vote network",
        include_laplace,
    )


def figure_1b(
    scale: float = 0.02,
    max_targets: "int | None" = 150,
    include_laplace: bool = False,
    config: "ExperimentConfig | None" = None,
    chunk_size: "int | None" = None,
    dtype: "str | None" = None,
    backend: "str | None" = None,
    nodes: "int | None" = None,
    exponent: "float | None" = None,
) -> FigureResult:
    """Figure 1(b): common neighbors on Twitter, eps in {1, 3}."""
    if config is None:
        config = paper_config_figure_1b(scale=scale, max_targets=max_targets)
    config = _with_overrides(
        config, chunk_size, dtype, backend, nodes, exponent
    )
    run = run_experiment(config)
    return _cdf_figure(
        run,
        "figure_1b",
        "Accuracy CDF, common neighbors, Twitter network",
        include_laplace,
    )


def _weighted_paths_figure(
    figure_id: str,
    title: str,
    configs: "list[ExperimentConfig]",
    include_laplace: bool,
) -> FigureResult:
    """Shared driver for Figures 2(a)/2(b): one run per gamma, shared graph."""
    series: list[Series] = []
    metadata: dict = {"runs": []}
    graph = build_graph(configs[0]) if configs else None
    try:
        for config in configs:
            run = run_experiment(config, graph=graph)
            eps = config.epsilons[0]
            series.append(
                _cdf_series(
                    f"Exp. gamma={config.gamma:g}",
                    run.accuracies(mechanism_key("exponential", eps)),
                )
            )
            if include_laplace and config.include_laplace:
                series.append(
                    _cdf_series(
                        f"Lap. gamma={config.gamma:g}",
                        run.accuracies(mechanism_key("laplace", eps)),
                    )
                )
            series.append(
                _cdf_series(f"Theor. gamma={config.gamma:g}", run.bounds(eps))
            )
            metadata["runs"].append(_metadata(run))
    finally:
        # The graph shared across gamma runs is ours; shared-backed ones
        # must release their segment.
        from ..graphs.shared import SharedSocialGraph

        if isinstance(graph, SharedSocialGraph):
            graph.close()
            graph.unlink()
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="Accuracy (1 - delta)",
        y_label="% of nodes with accuracy <= x",
        series=tuple(series),
        metadata=metadata,
    )


def figure_2a(
    scale: float = 0.1,
    max_targets: "int | None" = 150,
    gammas: tuple[float, ...] = (0.0005, 0.05),
    include_laplace: bool = False,
    chunk_size: "int | None" = None,
    dtype: "str | None" = None,
    backend: "str | None" = None,
    nodes: "int | None" = None,
    exponent: "float | None" = None,
) -> FigureResult:
    """Figure 2(a): weighted paths on Wiki-vote, eps = 1, two gammas."""
    configs = [
        _with_overrides(
            paper_config_figure_2a(gamma, scale=scale, max_targets=max_targets),
            chunk_size,
            dtype,
            backend,
            nodes,
            exponent,
        )
        for gamma in gammas
    ]
    return _weighted_paths_figure(
        "figure_2a",
        "Accuracy CDF, weighted paths, Wikipedia vote network (eps = 1)",
        configs,
        include_laplace,
    )


def figure_2b(
    scale: float = 0.02,
    max_targets: "int | None" = 150,
    gammas: tuple[float, ...] = (0.0005, 0.05),
    include_laplace: bool = False,
    chunk_size: "int | None" = None,
    dtype: "str | None" = None,
    backend: "str | None" = None,
    nodes: "int | None" = None,
    exponent: "float | None" = None,
) -> FigureResult:
    """Figure 2(b): weighted paths on Twitter, eps = 1, two gammas."""
    configs = [
        _with_overrides(
            paper_config_figure_2b(gamma, scale=scale, max_targets=max_targets),
            chunk_size,
            dtype,
            backend,
            nodes,
            exponent,
        )
        for gamma in gammas
    ]
    return _weighted_paths_figure(
        "figure_2b",
        "Accuracy CDF, weighted paths, Twitter network (eps = 1)",
        configs,
        include_laplace,
    )


def figure_2c(
    scale: float = 0.1,
    max_targets: "int | None" = 300,
    bins_per_decade: int = 3,
    config: "ExperimentConfig | None" = None,
    chunk_size: "int | None" = None,
    dtype: "str | None" = None,
    backend: "str | None" = None,
    nodes: "int | None" = None,
    exponent: "float | None" = None,
) -> FigureResult:
    """Figure 2(c): accuracy vs. degree, Wiki-vote, common neighbors, eps = 0.5."""
    if config is None:
        config = paper_config_figure_2c(scale=scale, max_targets=max_targets)
    config = _with_overrides(
        config, chunk_size, dtype, backend, nodes, exponent
    )
    run = run_experiment(config)
    eps = config.epsilons[0]
    bins = accuracy_by_degree(
        run.evaluations,
        mechanism_key("exponential", eps),
        eps,
        bins_per_decade=bins_per_decade,
    )
    centers = tuple(b.center for b in bins)
    return FigureResult(
        figure_id="figure_2c",
        title="Accuracy vs. target degree (Wiki vote, common neighbors, eps = 0.5)",
        x_label="Target node degree",
        y_label="Accuracy (1 - delta)",
        series=(
            Series(
                label="Exponential mechanism",
                x=centers,
                y=tuple(b.mean_accuracy for b in bins),
            ),
            Series(
                label="Theoretical Bound",
                x=centers,
                y=tuple(b.mean_bound for b in bins),
            ),
        ),
        metadata={**_metadata(run), "bin_counts": [b.count for b in bins]},
    )


#: Registry used by the CLI and benchmarks.
FIGURE_DRIVERS = {
    "1a": figure_1a,
    "1b": figure_1b,
    "2a": figure_2a,
    "2b": figure_2b,
    "2c": figure_2c,
}
