"""Command-line entry point.

Verbs: inject, detect, repair, model, bench, sweep, abtest, report. Every run
writes its artifacts under the output directory together with a manifest of
inputs, seeds, and artifact hashes.

Exit codes: 0 success, 1 usage error, 2 execution failure, 3 partial (some
grid cells failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from .metrics import repair_metrics_categorical, repair_metrics_numeric
from .report import emit_report, sha256_file, write_manifest
from .seeding import derive_seed
from .store import ResultsStore, make_record
from .tabular import save_csv, save_mask

ENV_OUT = "CLEANBENCH_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_PARTIAL = 3


class CliError(Exception):
    pass


def _parse_override(text: str) -> tuple[list[str], object]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise CliError(f"--set expects key=value, got {text!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key.split("."), parsed


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides:
        path, value = _parse_override(item)
        node = config
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"--set path {item!r} crosses a non-object value")
        node[path[-1]] = value
    return config


def _load_config(args) -> bench_mod.BenchmarkConfig:
    path = Path(args.config)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    _apply_overrides(raw, args.set or [])
    cfg = bench_mod.config_from_dict(raw, base_dir=path.parent)
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    if args.timeout is not None:
        cfg.timeout = args.timeout
    return cfg


def _out_dir(args) -> Path:
    root = args.out or os.environ.get(ENV_OUT) or "out"
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_inputs(args, cfg) -> dict:
    return {
        "config_path": str(args.config),
        "config_sha256": bench_mod.config_digest(cfg),
        "master_seed": cfg.master_seed,
        "repeats": cfg.repeats,
    }


def _cmd_inject(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    mat = bench_mod.materialize(cfg)
    artifacts = []
    gt_path = out / f"{mat.name}_gt.csv"
    dirty_path = out / f"{mat.name}_dirty.csv"
    save_csv(mat.pair.ground_truth, gt_path)
    save_csv(mat.pair.dirty, dirty_path)
    artifacts += [gt_path, dirty_path]
    summary = {"dataset": mat.name, "tags": sorted(mat.tags)}
    if mat.report is not None:
        for kind, mask in mat.report.masks.items():
            mask_path = out / f"{mat.name}_{kind}.mask"
            save_mask(mask, mask_path)
            artifacts.append(mask_path)
        union_path = out / f"{mat.name}_truth.mask"
        save_mask(mat.pair.error_mask, union_path)
        artifacts.append(union_path)
        summary.update(
            {
                "totals": mat.report.totals,
                "requested": mat.report.requested,
                "achieved_rate": mat.report.achieved_rate,
                "seed": mat.report.seed,
            }
        )
    report_path = out / "injection_report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    artifacts.append(report_path)
    write_manifest(out, "inject", _config_inputs(args, cfg), artifacts)
    return EXIT_OK


def _cmd_detect(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    mat = bench_mod.materialize(cfg)
    store = ResultsStore(out / "results.jsonl")
    common = dict(dataset=mat.name, repair="", model="", scenario="detect", seed=0)
    # detect_f1 first: a failed detector's one error record carries it
    scored = {
        f"detect_{name}": lambda run, score, name=name: dict(value=getattr(score, name), detect_runtime=run.runtime)
        for name in ("f1", "precision", "recall")
    }
    ctx = bench_mod.detector_context(
        cfg, mat.constraints, mat.pair.error_mask, mat.report, derive_seed(cfg.master_seed, "detect")
    )
    runs = bench_mod.score_detectors(cfg, mat.pair.dirty, ctx, store, common, scored)
    artifacts = [out / "results.jsonl"]
    for run in runs:
        artifacts.append(out / f"{mat.name}_{run.spec.name}.mask")
        save_mask(run.mask, artifacts[-1])
    store.write_index()
    write_manifest(out, "detect", _config_inputs(args, cfg), artifacts)
    return EXIT_PARTIAL if len(runs) < len(cfg.detectors) else EXIT_OK


def _repair_records(out: Path, mat, key: tuple[str, str], repaired, detect_runtime: float, artifacts: list) -> list:
    """Write one repaired version as CSV and score it against the ground truth."""
    artifacts.append(out / f"{mat.name}_{key[0]}_{key[1]}.csv")
    save_csv(repaired.data, artifacts[-1])
    pair = mat.pair
    numeric = repair_metrics_numeric(
        repaired.data, pair.ground_truth, pair.error_mask, repaired.row_map, pair.row_provenance
    )
    categorical = repair_metrics_categorical(
        repaired.data, pair.ground_truth, pair.error_mask, repaired.repaired_cells, repaired.row_map,
        pair.row_provenance,
    )
    rows = [("repair_rmse", numeric.numeric_rmse)] if numeric.numeric_rmse is not None else []
    rows += [
        ("repair_precision", categorical.precision),
        ("repair_recall", categorical.recall),
        ("repair_f1", categorical.f1),
    ]
    return [
        make_record(
            mat.name, *key, "", "repair", 0, metric, value,
            detect_runtime=detect_runtime, repair_runtime=repaired.runtime,
        )
        for metric, value in rows
    ]


def _cmd_repair(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    mat = bench_mod.materialize(cfg)
    strategies = [(det, rep) for det in cfg.detectors for rep in cfg.repairs]
    versions, runs, broken = bench_mod.build_versions(cfg, mat, strategies)
    store = ResultsStore(out / "results.jsonl")
    artifacts = [out / "results.jsonl"]
    failures = 0
    for det, rep in strategies:
        key = (det.name, rep.name)
        records, error = None, broken.get(key)
        if error is None:
            records, error = bench_mod._attempt(
                lambda: _repair_records(out, mat, key, versions[key], runs[det.name].runtime, artifacts), None
            )
        if error is not None:
            failures += 1
            records = [make_record(mat.name, *key, "", "repair", 0, "repair_rmse", None, error=error)]
        store.extend(records)
    store.write_index()
    write_manifest(out, "repair", _config_inputs(args, cfg), artifacts)
    return EXIT_PARTIAL if failures else EXIT_OK


def _run_grid(args, verb: str, strip_strategies: bool) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if strip_strategies:
        cfg.detectors, cfg.repairs = [], []
    store = ResultsStore(out / "results.jsonl")
    grid_store = bench_mod.run_benchmark(cfg, store=store, out_dir=out)
    artifacts = [out / "results.jsonl"]
    artifacts += sorted((out / "masks").glob("*.mask")) if (out / "masks").exists() else []
    write_manifest(out, verb, _config_inputs(args, cfg), artifacts)
    return EXIT_PARTIAL if grid_store.failures() else EXIT_OK


def _cmd_model(args) -> int:
    # Baseline modeling stage: dirty vs ground truth only, no cleaning strategies.
    return _run_grid(args, "model", strip_strategies=True)


def _cmd_bench(args) -> int:
    return _run_grid(args, "bench", strip_strategies=False)


# Each sweep axis and the config field that lists its values.
SWEEP_FIELDS = {"error_rate": "error_rates", "outlier_degree": "outlier_degrees", "scalability": "data_fractions"}


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    store = ResultsStore(out / "results.jsonl")
    values = getattr(cfg, SWEEP_FIELDS[args.axis])
    if not values:
        raise CliError(f"config has no {SWEEP_FIELDS[args.axis]} for the {args.axis} sweep")
    if args.axis == "scalability":
        bench_mod.run_scalability_sweep(cfg, values, store)
    else:
        bench_mod.run_robustness_sweep(cfg, args.axis, values, store)
    write_manifest(out, "sweep", _config_inputs(args, cfg), [out / "results.jsonl"])
    return EXIT_PARTIAL if store.failures() else EXIT_OK


def _cmd_abtest(args) -> int:
    store = ResultsStore(args.store)
    result = bench_mod.ab_compare(
        store,
        model=args.model,
        scenario_a=args.scenario_a,
        scenario_b=args.scenario_b,
        alpha=args.alpha,
        dataset=args.dataset,
        detector=args.detector,
        repair=args.repair,
    )
    print(
        json.dumps(
            {
                "w_statistic": result.w_statistic,
                "p_value": result.p_value,
                "alpha": result.alpha,
                "reject_h0": result.reject_h0,
                "n_effective": result.n_effective,
                "mode": result.mode,
                "degenerate": result.degenerate,
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    store = ResultsStore(args.store)
    out = _out_dir(args)
    group_by = tuple(args.group_by.split(",")) if args.group_by else None
    masks_dir = Path(args.masks) if args.masks else None
    written = emit_report(
        store,
        out,
        group_by=group_by or ("detector", "repair", "model", "scenario"),
        masks_dir=masks_dir,
    )
    write_manifest(
        out,
        "report",
        {"store": str(args.store), "store_sha256": sha256_file(Path(args.store))},
        written,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleanbench",
        description="Benchmark harness for data cleaning methods in ML pipelines",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./out)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--workers", type=int, help="size of the grid's cell pool")
        p.add_argument("--timeout", type=float, help="timeout in seconds for each detector and repair call")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field (dotted path, repeatable)")

    for verb, fn in (
        ("inject", _cmd_inject),
        ("detect", _cmd_detect),
        ("repair", _cmd_repair),
        ("model", _cmd_model),
        ("bench", _cmd_bench),
    ):
        p = sub.add_parser(verb)
        add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("sweep")
    add_common(p)
    p.add_argument("--axis", required=True, choices=tuple(SWEEP_FIELDS))
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("abtest")
    p.add_argument("--store", required=True, help="results.jsonl path")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario-a", required=True, dest="scenario_a")
    p.add_argument("--scenario-b", required=True, dest="scenario_b")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--dataset")
    p.add_argument("--detector")
    p.add_argument("--repair")
    p.set_defaults(fn=_cmd_abtest)

    p = sub.add_parser("report")
    p.add_argument("--store", required=True, help="results.jsonl path")
    p.add_argument("--out")
    p.add_argument("--group-by", dest="group_by", help="comma-separated group fields")
    p.add_argument("--masks", help="directory of saved detector masks for IoU tables")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract says 1.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    code, error = bench_mod._attempt(lambda: args.fn(args), None)  # one funnel for execution failures
    if error is None:
        return code
    print(json.dumps({"error": error, "verb": args.verb}), file=sys.stderr)
    return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
