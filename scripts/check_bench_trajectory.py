"""Audit the committed ``BENCH_*.json`` artifacts against their gates.

The repo commits each benchmark's JSON artifact, so the performance
story is part of the tree — but nothing used to stop a PR from
committing an artifact whose gated speedup had quietly slipped below
the line it was supposed to hold (a benchmark only fails at *run* time,
and CI runs the noisy ``--smoke`` profiles). This check closes that
gap: it parses the **committed** artifacts — no re-measurement, so it
is deterministic on any runner — and fails if any gated number
regressed below its gate.

Two artifact generations exist:

* harness-era artifacts (``benchmarks/harness.py``) embed their own
  pass criteria under ``result["gates"]`` as ``{"min_<field>": value}``
  — those are authoritative and checked as written;
* older artifacts predate the embedded-gates convention; for the ones
  whose gated field is deterministic (or was produced by the local
  acceptance run) ``LEGACY_GATES`` pins the floor the artifact has
  historically held. Artifacts with purely correctness-style content
  (everything interesting already asserted at generation time) are
  listed with no fields and skipped.

Run:  python scripts/check_bench_trajectory.py   (from the repo root;
      exits 1 on any regression, listing every failure)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Gate floors for artifacts that predate embedded ``gates``:
#: ``{artifact: [(dotted field, minimum), ...]}``. Values mirror the
#: gates their benchmarks enforce in CI (`scripts/ci_smoke.sh`): 2.0
#: for wall-clock speedups that are noise-gated down from the local 5x
#: acceptance. An empty list documents "nothing to check here".
LEGACY_GATES: "dict[str, list[tuple[str, float]]]" = {
    # The remaining artifacts gate correctness at generation time only.
    "BENCH_durability.json": [],
    "BENCH_scale.json": [],
    "BENCH_service_edge.json": [],
    "BENCH_telemetry.json": [],
}


def _lookup(data: dict, dotted: str):
    value = data
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check_artifact(path: Path) -> "list[str]":
    """Return failure messages for one artifact (empty = passed)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path.name}: unreadable artifact ({error})"]

    failures: list[str] = []
    embedded = data.get("gates")
    if isinstance(embedded, dict) and embedded:
        checks = []
        for key, minimum in sorted(embedded.items()):
            if not key.startswith("min_"):
                failures.append(f"{path.name}: malformed gate key {key!r}")
                continue
            checks.append((key[len("min_"):], float(minimum)))
        source = "embedded"
    elif path.name in LEGACY_GATES:
        checks = LEGACY_GATES[path.name]
        source = "legacy registry"
        if not checks:
            print(f"  {path.name}: no gated fields (correctness-only artifact)")
            return failures
    else:
        print(f"  {path.name}: no embedded gates and not in the legacy registry — skipped")
        return failures

    for field, minimum in checks:
        value = _lookup(data, field)
        if not isinstance(value, (int, float)):
            failures.append(
                f"{path.name}: gated field {field!r} missing or non-numeric"
            )
            continue
        if value >= minimum:
            print(f"  {path.name}: {field} = {value:.2f} >= {minimum:g} ({source})")
        else:
            failures.append(
                f"{path.name}: {field} = {value:.2f} regressed below its "
                f"gate {minimum:g} ({source})"
            )
    return failures


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    artifacts = sorted(root.glob("BENCH_*.json"))
    if not artifacts:
        print("FAIL: no BENCH_*.json artifacts found at the repo root")
        return 1
    print(f"checking {len(artifacts)} committed benchmark artifact(s)")
    failures: list[str] = []
    for path in artifacts:
        failures.extend(check_artifact(path))
    if failures:
        for message in failures:
            print(f"FAIL: {message}")
        return 1
    print("OK: every gated benchmark number holds its gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
