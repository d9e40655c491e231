"""Documentation consistency checks.

DESIGN.md and docs/THEORY.md map paper statements to modules and bench
targets; these tests keep those references honest — every referenced
module path, bench file, and example script must exist, and every public
item exported from the top-level package must have a docstring.
"""

from __future__ import annotations

import importlib
import re
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


class TestPublicApiDocstrings:
    @pytest.mark.parametrize("name", sorted(n for n in repro.__all__ if not n.startswith("__")))
    def test_exported_items_documented(self, name):
        item = getattr(repro, name)
        if isinstance(item, str):
            return  # __version__
        assert getattr(item, "__doc__", None), f"repro.{name} lacks a docstring"
