"""Reading and writing graphs in the SNAP edge-list format.

The paper's Wikipedia vote network ships from the Stanford Network Analysis
Package as a plain edge list with ``#`` comment lines. We support that format
for both reading and writing so synthetic replicas can be cached on disk and
external SNAP files dropped in when available.

Parsing is chunked: the file is read in multi-MB text blocks, comment and
blank lines are filtered per block, and the surviving lines go through
NumPy's C tokenizer (``np.loadtxt``) as one ``(rows, 2)`` batch — no
per-edge Python bytecode. Malformed input falls back to a per-line scan of
the offending block only, so error messages still name the exact
``path:line``. :func:`read_edge_list` builds the classic in-heap
:class:`SocialGraph`.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from ..errors import GraphFormatError, NodeError
from .graph import SocialGraph, sorted_distinct

#: Text-block size of the chunked parser. 8 MB keeps per-block overhead
#: negligible while bounding peak parse memory for arbitrarily large files.
PARSE_BLOCK_BYTES = 8 << 20


def _scan_block_for_error(
    path: "str | os.PathLike[str]", lines: "list[str]", first_line_number: int
) -> None:
    """Re-scan a block per line to locate and raise the exact format error."""
    for offset, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise GraphFormatError(
                f"{path}:{first_line_number + offset}: expected two fields, "
                f"got {len(fields)}"
            )
        try:
            int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{first_line_number + offset}: non-integer node id"
            ) from exc


def _parse_edge_blocks(path: "str | os.PathLike[str]"):
    """Yield ``(u, v)`` int64 array pairs, one per parsed text block.

    Comment (``#``) and blank lines are dropped exactly as the historical
    per-line reader did. A block that NumPy cannot tokenize as two integer
    columns is re-scanned line by line to raise the classic
    ``path:line: ...`` :class:`GraphFormatError`.
    """
    line_number = 1
    with open(path, "r", encoding="utf-8") as handle:
        pending = ""
        while True:
            block = handle.read(PARSE_BLOCK_BYTES)
            if not block:
                block, pending = pending, ""
                if not block:
                    return
                final = True
            else:
                block = pending + block
                block, newline, pending = block.rpartition("\n")
                if not newline:  # no newline yet: keep accumulating
                    pending = block
                    continue
                final = False
            lines = block.split("\n")
            kept = [
                line
                for line in lines
                if line.strip() and not line.lstrip().startswith("#")
            ]
            if kept:
                try:
                    pairs = np.loadtxt(
                        io.StringIO("\n".join(kept)), dtype=np.int64, ndmin=2
                    )
                    if pairs.shape[1] != 2:
                        raise ValueError("wrong field count")
                except (ValueError, OverflowError):
                    _scan_block_for_error(path, lines, line_number)
                    raise  # per-line scan found nothing: re-raise original
                yield pairs[:, 0], pairs[:, 1]
            line_number += len(lines)
            if final:
                return


def _parse_edge_list(
    path: "str | os.PathLike[str]",
) -> "tuple[np.ndarray, np.ndarray]":
    """All ``(u, v)`` label pairs of a SNAP file, as two int64 arrays."""
    heads: "list[np.ndarray]" = []
    tails: "list[np.ndarray]" = []
    for u, v in _parse_edge_blocks(path):
        heads.append(u)
        tails.append(v)
    if not heads:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(heads), np.concatenate(tails)


def _compact_labels(
    u: np.ndarray, v: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Map raw labels to ``0..n-1`` in sorted label order (the SNAP contract)."""
    labels = sorted_distinct(np.concatenate((u, v)))
    return np.searchsorted(labels, u), np.searchsorted(labels, v), int(labels.size)


def read_edge_list(
    path: "str | os.PathLike[str]",
    directed: bool = False,
    num_nodes: int | None = None,
) -> SocialGraph:
    """Parse a SNAP-style edge list into a :class:`SocialGraph`.

    Lines starting with ``#`` are comments; other lines hold two
    whitespace-separated integer node ids. Node ids are compacted to
    ``0..n-1`` preserving sorted order of the original labels (SNAP files are
    not guaranteed contiguous). Self-loops are dropped and duplicate pairs
    (reversed duplicates too, for undirected graphs) collapse to one edge.

    Raises
    ------
    GraphFormatError
        On malformed lines (wrong field count or non-integer ids).
    """
    u, v = _parse_edge_list(path)
    u, v, num_labels = _compact_labels(u, v)
    n = num_nodes if num_nodes is not None else num_labels
    if num_labels > n:
        # Mirror the historical per-edge loader: compacted ids beyond the
        # caller's num_nodes fail node validation.
        raise NodeError(num_labels - 1, n)
    return SocialGraph.from_edges(np.stack((u, v), axis=1), num_nodes=n, directed=directed)


def write_edge_list(graph: SocialGraph, path: "str | os.PathLike[str]", header: str | None = None) -> None:
    """Write ``graph`` as a SNAP-style edge list (one ``u v`` pair per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        kind = "directed" if graph.is_directed else "undirected"
        handle.write(f"# repro social graph: {graph.num_nodes} nodes, {graph.num_edges} edges, {kind}\n")
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")


def relabel_mapping(labels: "list[int] | set[int]") -> dict[int, int]:
    """Return the ``original label -> compact id`` mapping used by the reader."""
    return {label: i for i, label in enumerate(sorted(labels))}
