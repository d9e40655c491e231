"""Persistence for per-target evaluation records.

Figure results serialize through :mod:`repro.experiments.results`; this
module serializes the underlying per-target records (JSON Lines, one
record per line) so expensive runs can be archived and re-analyzed —
different CDF grids, degree binnings, or bound comparisons — without
recomputing the experiment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..accuracy.evaluator import TargetEvaluation
from ..errors import ExperimentError


def evaluation_to_dict(record: TargetEvaluation) -> dict:
    """Plain-dict form of one per-target record."""
    return {
        "target": record.target,
        "degree": record.degree,
        "num_candidates": record.num_candidates,
        "u_max": record.u_max,
        "t": record.t,
        "accuracies": dict(record.accuracies),
        "theoretical_bounds": {str(k): v for k, v in record.theoretical_bounds.items()},
    }


def evaluation_from_dict(data: dict) -> TargetEvaluation:
    """Inverse of :func:`evaluation_to_dict`."""
    try:
        return TargetEvaluation(
            target=int(data["target"]),
            degree=int(data["degree"]),
            num_candidates=int(data["num_candidates"]),
            u_max=float(data["u_max"]),
            t=int(data["t"]),
            accuracies={str(k): float(v) for k, v in data["accuracies"].items()},
            theoretical_bounds={
                float(k): float(v) for k, v in data["theoretical_bounds"].items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ExperimentError(f"malformed evaluation record: {exc}") from exc


def save_evaluations(
    records: "list[TargetEvaluation]", path: "str | os.PathLike[str]"
) -> None:
    """Write records as JSON Lines (one JSON object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(evaluation_to_dict(record), sort_keys=True))
            handle.write("\n")


def load_evaluations(path: "str | os.PathLike[str]") -> list[TargetEvaluation]:
    """Read records written by :func:`save_evaluations`."""
    records: list[TargetEvaluation] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                data = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise ExperimentError(f"{path}:{line_number}: invalid JSON") from exc
            records.append(evaluation_from_dict(data))
    return records
