"""Output check: canonical store records, the output digest and record diffs.

A record's canonical form is its JSON with sorted keys and without the fields
that legitimately differ between identical runs: `timestamp` and every
`*_runtime`. The digest is sha256 over the sorted canonical records.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "timestamp" and not k.endswith("_runtime")}


def canonical(record: dict) -> str:
    return json.dumps(strip(record), sort_keys=True)


def digest(lines) -> str:
    """sha256 over sorted canonical record lines."""
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def count_wrong(got: dict[str, str], want: dict[str, str]) -> int:
    """Records, by store key, that differ from or are missing against `want`,
    plus records `want` does not have."""
    wrong = sum(1 for key, line in want.items() if got.get(key) != line)
    return wrong + sum(1 for key in got if key not in want)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.jsonl"


def load_reference(workload: str) -> dict[str, str]:
    """Canonical reference records keyed by store key: one JSON array
    `[key, canonical_record]` per line."""
    out = {}
    with open(reference_path(workload), encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                key, record = json.loads(line)
                out[key] = record
    return out


def write_reference(workload: str, lines: dict[str, str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8") as fh:
        for key in sorted(lines):
            fh.write(json.dumps([key, lines[key]]) + "\n")
