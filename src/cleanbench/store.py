"""Append-only results store: line-delimited JSON records with an index sidecar.

Records are uniquely keyed by (dataset, detector, repair, model, scenario,
seed, metric); appending a record with an existing key upserts it, so
re-running an identical configuration is idempotent.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

KEY_FIELDS = ("dataset", "detector", "repair", "model", "scenario", "seed", "metric")


class StoreError(Exception):
    pass


def record_key(record: dict) -> str:
    return "|".join(str(record.get(f, "")) for f in KEY_FIELDS)


def make_record(
    dataset: str,
    detector: str,
    repair: str,
    model: str,
    scenario: str,
    seed: int,
    metric: str,
    value: float | None,
    detect_runtime: float | None = None,
    repair_runtime: float | None = None,
    train_runtime: float | None = None,
    error: str | None = None,
    **extra,
) -> dict:
    record = {
        "dataset": dataset,
        "detector": detector,
        "repair": repair,
        "model": model,
        "scenario": scenario,
        "seed": seed,
        "metric": metric,
        "value": value,
        "detect_runtime": detect_runtime,
        "repair_runtime": repair_runtime,
        "train_runtime": train_runtime,
        "timestamp": time.time(),
    }
    if error is not None:
        record["error"] = error
    record.update(extra)
    return record


class ResultsStore:
    """JSONL-backed store; pass path=None for a purely in-memory store."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: dict[str, dict] = {}
        self._appended: set[str] = set()
        self._line_of: dict[str, int] = {}  # each key's last line in the file, from 1
        self._lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        line_no = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise StoreError(f"{self.path}:{line_no}: bad record: {exc}") from exc
                key = record_key(record)
                self._records[key] = record
                self._line_of[key] = line_no
        self._lines = line_no

    def append(self, record: dict) -> None:
        for field in KEY_FIELDS:
            if field not in record:
                raise StoreError(f"record missing key field {field!r}")
        key = record_key(record)
        self._records[key] = record
        self._appended.add(key)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._lines += 1
            self._line_of[key] = self._lines

    def extend(self, records) -> None:
        for r in records:
            self.append(r)

    def records(self) -> list[dict]:
        return list(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def query(self, **filters) -> list[dict]:
        """Records matching every given field exactly; None filters are ignored."""
        out = []
        for record in self._records.values():
            if all(v is None or record.get(k) == v for k, v in filters.items()):
                out.append(record)
        return out

    def failures(self) -> list[dict]:
        """Error records appended through this store object: this run's
        failures, not those it loaded from an earlier run's file."""
        return [r for key, r in self._records.items() if key in self._appended and r.get("error")]

    def write_index(self) -> None:
        """Sidecar mapping each record key to its last line number in the file."""
        if self.path is None:
            return
        sidecar = self.path.with_suffix(self.path.suffix + ".idx.json")
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(self._line_of, fh, indent=0, sort_keys=True)
