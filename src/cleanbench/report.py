"""Plot-ready aggregate tables and run manifests.

Reports are pure functions of the results store: re-emitting the same store
produces byte-identical CSV files. One file per metric kind carries mean,
sample std, and n per group; a companion IoU matrix per dataset quantifies
detector similarity over true-positive cells.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from pathlib import Path

from .metrics import iou
from .stats import summarize
from .store import ResultsStore
from .tabular import load_mask

DEFAULT_GROUP_BY = ("detector", "repair", "model", "scenario")


class ReportError(Exception):
    pass


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def emit_report(
    store: ResultsStore,
    out_dir: str | Path,
    group_by: tuple[str, ...] = DEFAULT_GROUP_BY,
    masks_dir: str | Path | None = None,
) -> list[Path]:
    """Write one aggregate CSV per metric kind, plus IoU matrices when the
    per-detector mask files are available."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_metric: dict[str, dict[tuple, list[float]]] = {}
    for record in store.records():
        if record.get("value") is None or record.get("error"):
            continue
        metric = record["metric"]
        group = tuple(str(record.get(g, "")) for g in group_by)
        by_metric.setdefault(metric, {}).setdefault(group, []).append(record["value"])
    if not by_metric:
        raise ReportError("store holds no successful records for this query")

    written: list[Path] = []
    for metric in sorted(by_metric):
        safe = metric.replace("@", "_at_").replace(":", "_").replace("/", "_")
        path = out_dir / f"report_{safe}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(group_by) + ["mean", "std", "n"])
            for group in sorted(by_metric[metric]):
                s = summarize(by_metric[metric][group])
                writer.writerow(
                    list(group)
                    + [repr(s.mean), "" if s.std is None else repr(s.std), s.n]
                )
        written.append(path)

    if masks_dir is not None:
        written.extend(_emit_iou_matrices(Path(masks_dir), out_dir))
    return written


def _emit_iou_matrices(masks_dir: Path, out_dir: Path) -> list[Path]:
    # Dataset and detector names may both contain underscores, so datasets
    # come from the `<dataset>_truth.mask` files, and every other mask goes
    # to the longest dataset name that prefixes it.
    paths = sorted(masks_dir.glob("*.mask"))
    truth = {p.stem[: -len("_truth")]: p for p in paths if p.stem.endswith("_truth")}
    by_dataset: dict[str, dict[str, Path]] = {}
    for path in paths:
        if path in truth.values():
            continue
        owners = [d for d in truth if path.stem.startswith(d + "_")]
        if owners:
            dataset = max(owners, key=len)
            by_dataset.setdefault(dataset, {})[path.stem[len(dataset) + 1 :]] = path
    written = []
    for dataset, detectors in sorted(by_dataset.items()):
        truth_mask = load_mask(truth[dataset])
        names = sorted(detectors)
        masks = {name: load_mask(detectors[name]) for name in names}
        path = out_dir / f"iou_{dataset}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detector"] + names)
            for a in names:
                row = [a] + [repr(iou(masks[a], masks[b], truth_mask)) for b in names]
                writer.writerow(row)
        written.append(path)
    return written


def write_manifest(
    out_dir: str | Path,
    verb: str,
    inputs: dict,
    artifacts: list[Path],
) -> Path:
    """Record inputs, seeds, and artifact hashes so every emitted number is
    traceable to its run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "verb": verb,
        "inputs": inputs,
        "artifacts": {
            str(p.relative_to(out_dir) if p.is_relative_to(out_dir) else p): sha256_file(p)
            for p in artifacts
            if p.exists()
        },
        "created": time.time(),
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path
