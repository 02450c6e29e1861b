"""cleanbench benchmark: times each workload end to end, or per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload grid_repair --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --write-reference

Each workload run happens in a fresh child process (`child.py`) with its own
input, store and report directory, one after another. Runs repeat until
`--seconds` have passed, and every reported value is the median over them.
With `--trace 0` the runs are untraced and the end-to-end metrics are
reported; with `--trace 1` untraced and traced runs alternate, and the
per-layer metrics of the traced runs are reported together with the tracing
overhead. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Output check: at the default seed every record must equal the reference
kept in `reference/`; at other seeds every run must equal the first.
`--write-reference` regenerates the reference at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402

# Named here too so that this process needs no cleanbench import.
WORKLOADS = ("grid_repair", "grid_models", "sweep_detect")
DEFAULT_SEED = 0
MIN_RUNS = 4
DEADLINE_S = 165.0  # a benchmark invocation must end within 180 s
CHILD_TIMEOUT_S = 150.0
# One BLAS thread per process keeps the grid pool's worker threads <= nproc.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("records_per_s", "1/s"), ("first_record_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Reported on stdout and through `failed`/`correct`; they are 0 on a correct
# run, so they are not benchmark metrics with a bound.
CHECK_METRICS = (("failed_frac", "ratio"), ("wrong_frac", "ratio"))


class BenchFailure(Exception):
    pass


def spans_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"


def run_child(workload: str, seed: int, traced: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(int(traced)), "--dir", work]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV}, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchFailure(f"{workload} run exceeded {CHILD_TIMEOUT_S:g} s") from exc
        if traced and proc.returncode == 0:
            shutil.copy(Path(work) / "spans.jsonl", spans_path(workload, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchFailure(f"{workload} run exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t0"] - spawned
    result["traced"] = traced
    return result


def run_series(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Child runs until less than half a run's time of `seconds` is left;
    with tracing, untraced and traced runs alternate and the series ends on
    a traced run."""
    start = time.monotonic()
    results: list[dict] = []
    while True:
        results.append(run_child(workload, seed, traced=trace and len(results) % 2 == 1))
        elapsed = time.monotonic() - start
        mean = elapsed / len(results)
        done = elapsed + mean / 2 >= seconds and len(results) >= MIN_RUNS and not (trace and len(results) % 2)
        if done or elapsed + 2 * mean > DEADLINE_S:
            return results


def environment(workers: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workers": workers,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_outputs(results: list[dict], workload: str, seed: int) -> tuple[int, str]:
    """Wrong records per run, summed, against the reference or the first run."""
    if seed == DEFAULT_SEED:
        reference = outputs.load_reference(workload)
        against = "reference"
    else:
        reference = results[0]["lines"]
        against = "first run"
    for r in results:
        r["wrong"] = outputs.count_wrong(r["lines"], reference)
    return sum(r["wrong"] for r in results), f"{against} digest {outputs.digest(reference.values())}"


def end_to_end(untraced: list[dict]) -> dict[str, list[float]]:
    return {
        "wall_s": [r["wall_s"] for r in untraced],
        "records_per_s": [r["records"] / r["wall_s"] for r in untraced],
        "first_record_s": [r["first_record_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for r in traced:
        for name, value in r["per_layer"].items():
            samples.setdefault(name, []).append(value)
    traced_wall = [r["wall_s"] for r in traced]
    untraced_wall = [r["wall_s"] for r in untraced]
    samples["trace.wall_s"] = traced_wall
    samples["trace.untraced_wall_s"] = untraced_wall
    samples["trace.overhead_s"] = [statistics.median(traced_wall) - statistics.median(untraced_wall)]
    return samples


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".cells", ".flagged_cells", ".cells_repaired", ".flagged_in", ".workers")):
        return "count"
    if name.endswith((".share", "_frac", "_ratio")):
        return "ratio"
    if name == "store.bytes":
        return "bytes"
    return "s"


def ratio_bases(m: dict[str, float]) -> dict[str, str]:
    """Each ratio's numerator and denominator, from the medians of each."""
    bases = {
        "repair.fill_ratio": f"repair.cells_repaired {m['repair.cells_repaired']:g} / "
        f"repair.flagged_in {m['repair.flagged_in']:g}",
        "bench.pool_busy_frac": f"bench.pool_child_busy_s {m['bench.pool_child_busy_s']:.4f} / "
        f"(trace.wall_s {m['trace.wall_s']:.4f} x bench.workers {m['bench.workers']:g})",
    }
    for name in m:
        if name.endswith(".share"):
            bases[name] = f"covered {m[name] * m['trace.wall_s']:.4f} s / trace.wall_s {m['trace.wall_s']:.4f}"
    return bases


def print_table(samples: dict[str, list[float]], units: dict[str, str], bases: dict[str, str] | None = None) -> None:
    print(f"{'metric':<32}{'median':>14}  {'unit':<7}{'n':>3}{'q1':>14}{'q3':>14}")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        line = f"{name:<32}{med:>14.6g}  {units[name]:<7}{len(values):>3}{q1:>14.6g}{q3:>14.6g}"
        if bases and name in bases:
            line += f"   base: {bases[name]}"
        print(line)


def write_reference() -> int:
    for workload in WORKLOADS:
        result = run_child(workload, DEFAULT_SEED, traced=False)
        if result["failed"]:
            print(f"{workload}: {result['failed']} failed records; reference not written", file=sys.stderr)
            return 1
        outputs.write_reference(workload, result["lines"])
        print(f"{workload}: {result['records']} records, digest {result['digest']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "cleanbench").is_dir():
        print(f"benchmark failed: no cleanbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    # Turn SIGTERM into SystemExit so that the running child is killed and
    # waited for, and its work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_before = os.getloadavg()
    try:
        results = run_series(args.workload, args.seed, args.seconds, bool(args.trace))
        wrong, against = check_outputs(results, args.workload, args.seed)
    except (BenchFailure, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = environment(results[0]["workers"])
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted = sum(r["expected"] for r in results)
    failed = sum(r["failed"] for r in results)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced runs")
    print(f"digests {sorted({r['digest'] for r in results})}; checked against {against}")
    for r in results:
        if r["error"]:
            print(f"run raised:\n{r['error']}")

    e2e = end_to_end(untraced)
    e2e["failed_frac"] = [failed / attempted]
    e2e["wrong_frac"] = [wrong / attempted]
    print_table(e2e, dict(END_TO_END + CHECK_METRICS))
    if args.trace:
        layers = per_layer(traced, untraced)
        medians = {name: statistics.median(values) for name, values in layers.items()}
        print(f"spans of the last traced run: {spans_path(args.workload, args.seed).relative_to(ROOT)}")
        print_table(layers, {name: layer_unit(name) for name in layers}, ratio_bases(medians))
        reported = {name: (medians[name], layer_unit(name)) for name in layers}
    else:
        reported = {name: (statistics.median(e2e[name]), unit) for name, unit in END_TO_END}
    print(
        json.dumps(
            {
                "correct": wrong == 0 and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
