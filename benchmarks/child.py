"""One workload run in a fresh process; prints one JSON object on stdout.

Usage: python3 benchmarks/child.py --workload NAME --seed N --trace 0|1 --dir DIR

DIR must be empty: the input CSV, a fresh results store and the report go
there. The clock starts at the workload's first call into cleanbench, so the
time before it (interpreter start, imports, input generation) is set-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cleanbench.store import ResultsStore, record_key  # noqa: E402

import outputs  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FirstAppendStore(ResultsStore):
    """Results store that notes when its first append returns."""

    first_append: float | None = None

    def append(self, record: dict) -> None:
        super().append(record)
        if self.first_append is None:
            self.first_append = time.monotonic()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    out_dir = Path(args.dir)
    if any(out_dir.iterdir()):
        raise SystemExit(f"{out_dir} is not empty; every run needs a fresh store")
    csv_path = out_dir / "input.csv"
    store_path = out_dir / "results.jsonl"
    workload.make_input(args.seed, csv_path)
    cfg = workload.config(csv_path, args.seed)
    expected = workload.expected(cfg)
    store = FirstAppendStore(store_path)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-{args.seed}")
        spans.install(tracer)

    error = None
    t0 = time.monotonic()
    try:
        workload.execute(cfg, store, out_dir)
    except Exception:  # a run that raises counts every expected record as failed
        error = traceback.format_exc()
    t1 = time.monotonic()
    if tracer is not None:
        tracer.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = ResultsStore(store_path).records() if error is None else []
    lines = {record_key(r): outputs.canonical(r) for r in records}
    errored = sum(1 for r in records if r.get("error"))
    result = {
        "t0": t0,
        "wall_s": t1 - t0,
        "first_record_s": (store.first_append or t1) - t0,
        "peak_rss_mb": peak_rss_mb,
        "records": len(records),
        "expected": expected,
        "workers": cfg.workers,
        "failed": errored + max(0, expected - len(records)),
        "error": error,
        "digest": outputs.digest(lines.values()),
        "lines": lines,
    }
    if tracer is not None:
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
        result["per_layer"] = spans.per_layer_metrics(
            tracer.spans, tracer.counts, t1 - t0, cfg.workers, store_path.stat().st_size if store_path.exists() else 0
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
