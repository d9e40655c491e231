"""Documentation consistency checks.

DESIGN.md and docs/THEORY.md map paper statements to modules and bench
targets; these tests keep those references honest — every referenced
module path, bench file, and example script must exist, and every public
item exported from the top-level package must have a docstring.
"""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _referenced_python_paths(markdown: str) -> set[str]:
    """Extract backticked repo-relative .py paths from a markdown document."""
    paths = set()
    for match in re.findall(r"`([\w/\.]+\.py)`", markdown):
        paths.add(match)
    return paths


class TestDesignDocument:
    def test_design_exists_with_required_sections(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for heading in ("Substitutions", "System inventory", "Per-experiment index"):
            assert heading in text

    def test_referenced_bench_files_exist(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for match in re.findall(r"benchmarks/(bench_\w+\.py)", text):
            assert (REPO_ROOT / "benchmarks" / match).exists(), match

    def test_referenced_modules_exist(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for match in re.findall(r"`(\w+(?:/\w+)+\.py)`", text):
            candidate = REPO_ROOT / "src" / "repro" / match
            alt = REPO_ROOT / match
            assert candidate.exists() or alt.exists(), match


    def test_symbol_references_resolve(self):
        """Every ``path.py::name`` in DESIGN.md names an attribute of that
        module or of a class defined in it."""
        text = (REPO_ROOT / "DESIGN.md").read_text()
        references = re.findall(r"(\w+(?:/\w+)*\.py)::(\w+)", text)
        assert references
        for module_path, symbol in references:
            module_name = "repro." + module_path[:-3].replace("/", ".")
            module = importlib.import_module(module_name)
            owners = [module] + [
                value
                for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == module_name
            ]
            assert any(hasattr(owner, symbol) for owner in owners), (
                f"{module_path}::{symbol}"
            )


class TestTheoryDocument:
    def test_theory_references_resolve(self):
        text = (REPO_ROOT / "docs" / "THEORY.md").read_text()
        for dotted in re.findall(r"`(\w+(?:/\w+)*\.py)::(\w+)`", text):
            module_path, symbol = dotted
            if module_path.startswith("tests/"):
                # test references are checked as files, not imports
                assert (REPO_ROOT / module_path).exists(), module_path
                continue
            module_name = "repro." + module_path[:-3].replace("/", ".")
            module = importlib.import_module(module_name)
            assert hasattr(module, symbol), f"{module_name}.{symbol}"


class TestExperimentsDocument:
    def test_every_bench_has_an_experiments_entry(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        bench_files = sorted(
            p.name for p in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        )
        for name in bench_files:
            assert name in text, f"{name} missing from EXPERIMENTS.md"


class TestReadme:
    def test_examples_table_matches_directory(self):
        text = (REPO_ROOT / "README.md").read_text()
        for script in (REPO_ROOT / "examples").glob("*.py"):
            # budgeted_feed is referenced from EXPERIMENTS/DESIGN territory;
            # require every example to be discoverable from at least one doc.
            docs = text + (REPO_ROOT / "EXPERIMENTS.md").read_text()
            docs += (REPO_ROOT / "DESIGN.md").read_text()
            assert script.name in docs or script.stem in docs, script.name

    def test_cli_commands_parse(self):
        """Every documented ``python -m repro.cli ...`` command parses."""
        from repro.cli import build_parser

        text = (REPO_ROOT / "README.md").read_text().replace("\\\n", " ")
        commands = [
            line.split("python -m repro.cli", 1)[1]
            for line in text.splitlines()
            if "python -m repro.cli" in line
        ]
        assert commands
        parser = build_parser()
        for command in commands:
            try:
                parser.parse_args(shlex.split(command, comments=True))
            except SystemExit:
                pytest.fail(f"README command does not parse: repro.cli{command}")


#: Deleted API, by removal: none of these names may come back in code.
REMOVED_NAMES = {
    # The executor layer, context shipping and the shared-graph attach
    # path: every batched pipeline runs its chunks inline.
    "executor-layer": (
        "Executor", "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
        "make_executor", "executor_lease", "encode_shared", "decode_shared",
        "shipped_nbytes", "__ship__", "attach_shared_graph",
        "clear_attach_cache", "GraphVersionError", "for_workers",
        "REPRO_SMOKE_WORKERS",
    ),
    # The dirty-ball journal and the evict mode: a cached row is patched
    # from journaled score deltas or flushed, nothing in between.
    "evict-mode": (
        "reverse_ball_layers", "MutationRecord", "DEFAULT_JOURNAL_HORIZON",
        "dirty_since", "request_journal_horizon", "request_horizon",
        "invalidation_horizon", "journal_horizon", "patch_crossover",
        "DEFAULT_PATCH_CROSSOVER",
    ),
    # User-set chunk sizes, the serving dtype and serve-sim's churn mode:
    # no stage is chunked, serving runs in float64, and serving under
    # churn is stream-sim's job.
    "compute-knobs": (
        "with_dtype", "FUSED_CHUNK_BYTES", "_fused_default_chunk", "mutate_every",
    ),
    # The dense experiment engine and its float32 knob: accuracies and
    # Corollary 1 bounds come from each target's positive support plus
    # one zero bucket, so no stage holds a rows x num_nodes block.
    "dense-engine": (
        "fused_compact_rows", "CompactChunk", "CompactRows",
        "expected_accuracy_compact", "tightest_accuracy_bounds_masked",
        "score_rows", "COMPUTE_DTYPES", "resolve_dtype",
    ),
    # The dense component side-car: a patching cache's rows are
    # support-form, their walk counts a sparse side-car patched by merge.
    "dense-side-car": (
        "candidate_mask", "candidate_mask_rows", "apply_edge_delta",
        "candidate_position_map", "batch_score_components",
        "combine_component_matrices", "kernel.scores64", "kernel.mask",
    ),
    # The byte budget, its chunk plans, the buffer arena and every dense
    # score block: weighted paths and the gamma sweep recombine sparse
    # walk rows, and the default support_scores reads one row at a time.
    "dense-compute": (
        "ComputePlan", "TargetChunk", "CHUNK_BYTES", "chunk_rows", "Workspace",
        "get_workspace", "reset_workspace", "batch_walk_matrices",
        "combine_walk_matrices", "batch_scores", "ComputeError",
    ),
    # The second serving stack in extensions/: top-k is
    # recommend(user, k=), a user's budget is BudgetManager plus the
    # ledger row, and serving under mutation is StreamingService.
    "second-serving-stack": (
        "TopKRecommender", "PrivacyAccountant", "BudgetEntry", "TemporalGraph",
        "DynamicRecommender", "EdgeEvent", "to_edge_events", "recommend_top_k",
        "recommend_at", "split_evenly",
    ),
    # The coalescer's per-dispatch size list grew without bound; the
    # edge.batch_size histogram records the distribution.
    "coalescer-history": ("batch_sizes",),
    # The Laplace Monte-Carlo accuracy path: Laplace accuracies and
    # probabilities are exact for any number of candidates.
    "monte-carlo-laplace": (
        "laplace_trials", "MC_BLOCK_ELEMENTS", "_monte_carlo_accuracy",
        "_noise_buffers", "_fill_laplace", "expected_accuracy_batch",
        "laplace.e1", "laplace.e2",
    ),
}


class TestRemovedNames:
    @pytest.mark.parametrize("group", sorted(REMOVED_NAMES))
    def test_removed_names_stay_gone(self, group):
        names = REMOVED_NAMES[group]
        pattern = re.compile(
            r"(?<![A-Za-z0-9])(" + "|".join(map(re.escape, names)) + r")(?![A-Za-z0-9])"
        )
        hits = []
        for top in ("src", "benchmarks", "examples", "scripts", ".github"):
            for path in sorted((REPO_ROOT / top).rglob("*")):
                if not path.is_file() or path.suffix not in {".py", ".sh", ".yml", ".yaml"}:
                    continue
                for number, line in enumerate(path.read_text().splitlines(), 1):
                    if pattern.search(line):
                        hits.append(f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}")
        assert not hits, "\n".join(hits)

    @pytest.mark.parametrize(
        "keyword", ["incremental", "patch_crossover", "chunk_size", "dtype"]
    )
    @pytest.mark.parametrize(
        "build", ["UtilityCache", "RecommendationService", "StreamingService"]
    )
    def test_removed_arguments_are_rejected(self, build, keyword):
        from repro.datasets import toy
        from repro.serving import UtilityCache
        from repro.utility import CommonNeighbors

        graph = toy.star(4)
        constructors = {
            "UtilityCache": lambda **kw: UtilityCache(graph, CommonNeighbors(), **kw),
            "RecommendationService": lambda **kw: repro.RecommendationService(graph, **kw),
            "StreamingService": lambda **kw: repro.StreamingService(graph, **kw),
        }
        with pytest.raises(TypeError):
            constructors[build](**{keyword: True})

    def test_removed_engine_dtype_is_rejected(self):
        """The engine, the epsilon sweep, the experiment config and the
        figure/sweep commands lost ``dtype`` with the dense engine."""
        from repro.accuracy.batch import evaluate_targets_batched
        from repro.cli import build_parser
        from repro.datasets import toy
        from repro.errors import ExperimentError
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.sweeps import epsilon_sweep
        from repro.utility import CommonNeighbors

        graph = toy.star(4)
        with pytest.raises(TypeError):
            evaluate_targets_batched(graph, CommonNeighbors(), [0], {}, dtype="float32")
        with pytest.raises(TypeError):
            epsilon_sweep(graph, CommonNeighbors(), [0], dtype="float32")
        config = ExperimentConfig().to_dict()
        with pytest.raises(ExperimentError, match="dtype"):
            ExperimentConfig.from_dict({**config, "dtype": "float32"})
        for command in (["figure", "1a"], ["sweep"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--dtype", "float32"])

    def test_removed_laplace_trials_are_rejected(self):
        """Laplace accuracies are exact: no entry point takes a trial count."""
        from repro.accuracy.batch import evaluate_targets_batched
        from repro.accuracy.evaluator import evaluate_targets
        from repro.datasets import toy
        from repro.errors import ExperimentError
        from repro.experiments.config import ExperimentConfig
        from repro.mechanisms import LaplaceMechanism
        from repro.utility import CommonNeighbors

        with pytest.raises(TypeError):
            LaplaceMechanism(1.0, trials=10)
        graph = toy.star(4)
        mechanisms = {"laplace@1": LaplaceMechanism(1.0)}
        for engine in (evaluate_targets, evaluate_targets_batched):
            with pytest.raises(TypeError):
                engine(graph, CommonNeighbors(), [0], mechanisms, laplace_trials=10)
        legacy = {**ExperimentConfig().to_dict(), "laplace_trials": 1_000}
        assert "laplace_trials" not in ExperimentConfig().to_dict()
        with pytest.raises(ExperimentError, match="laplace_trials"):
            ExperimentConfig.from_dict(legacy)

    def test_removed_journal_horizon_argument_is_rejected(self):
        from repro.datasets import toy
        from repro.streaming import MutableSocialGraph

        with pytest.raises(TypeError):
            MutableSocialGraph(4, journal_horizon=1)
        with pytest.raises(TypeError):
            MutableSocialGraph.from_graph(toy.star(4), journal_horizon=1)


class TestNoChunkSizeArgument:
    """No entry point takes a chunk size, so passing one is a caller
    error, not a silent no-op (the services are covered by
    ``TestRemovedNames.test_removed_arguments_are_rejected``)."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graphs.generators import erdos_renyi_gnp

        return erdos_renyi_gnp(20, 0.2, seed=1)

    def test_batched_engine(self, graph):
        from repro.accuracy.batch import evaluate_targets_batched
        from repro.mechanisms.best import BestMechanism
        from repro.utility.common_neighbors import CommonNeighbors

        with pytest.raises(TypeError):
            evaluate_targets_batched(
                graph, CommonNeighbors(), range(5), {"best": BestMechanism()},
                chunk_size=4,
            )

    def test_epsilon_sweep(self, graph):
        from repro.experiments.sweeps import epsilon_sweep
        from repro.utility.common_neighbors import CommonNeighbors

        with pytest.raises(TypeError):
            epsilon_sweep(graph, CommonNeighbors(), range(5), chunk_size=4)

    def test_gamma_sweep(self, graph):
        from repro.experiments.sweeps import gamma_sweep

        with pytest.raises(TypeError):
            gamma_sweep(graph, range(5), chunk_size=4)

    @pytest.mark.parametrize("figure_id", ["1a", "1b", "2a", "2b", "2c"])
    def test_figure_drivers(self, figure_id):
        from repro.experiments.figures import FIGURE_DRIVERS

        with pytest.raises(TypeError):
            FIGURE_DRIVERS[figure_id](chunk_size=4)


class TestPublicApiDocstrings:
    @pytest.mark.parametrize("name", sorted(n for n in repro.__all__ if not n.startswith("__")))
    def test_exported_items_documented(self, name):
        item = getattr(repro, name)
        if isinstance(item, str):
            return  # __version__
        assert getattr(item, "__doc__", None), f"repro.{name} lacks a docstring"
