"""Command-line entry points: run a scenario, scan steady states, bound data.

    qubitchain run   --config cfg.json --out DIR [--seed N] [--threads N]
                     [--solver exact|mps]
    qubitchain scan  --config scan.json --out DIR
    qubitchain bounds --correlations data.csv --out DIR

Exit code 0 on success.  Any failure writes DIR/error.json with the error
type and message and exits nonzero, so batch drivers can triage runs
without parsing logs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .harness import ConfigError, ScanConfig, ScenarioConfig, run_scenario, steady_state_scan
from .outputs import emit_bounds_outputs, emit_outputs, emit_scan_outputs
from .witness import bound_c1, bound_c2, c2_opt_value, load_correlations_csv

BUILD_ID = f"qubitchain {__version__}"


def _write_error(out_dir: str, exc: Exception) -> None:
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").write_text(
            json.dumps({"error": str(exc), "type": type(exc).__name__}, indent=1) + "\n"
        )
    except OSError:
        pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def cmd_run(args) -> int:
    config = ScenarioConfig.from_dict(_load_json(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.solver is not None:
        config = replace(config, solver=replace(config.solver, kind=args.solver))
    result = run_scenario(config, threads=args.threads)
    manifest = emit_outputs(result, args.out, BUILD_ID)
    for pair in config.observables.pairs:
        fm = result.stats.first_max_mean(pair)
        fluct = result.stats.relative_fluctuation(pair)
        print(
            f"pair {pair}: first-maximum mean {fm:.6g}"
            + (f", relative fluctuation {fluct:.4g}" if not math.isnan(fluct) else "")
        )
    print(f"wrote {manifest}")
    return 0


def cmd_scan(args) -> int:
    config = ScanConfig.from_dict(_load_json(args.config))
    result = steady_state_scan(config)
    manifest = emit_scan_outputs(result, args.out, BUILD_ID)
    for ratio, label in sorted(result.classifications.items()):
        print(f"K/delta = {ratio:g}: {label}")
    print(f"wrote {manifest}")
    return 0


def cmd_bounds(args) -> int:
    matrices = load_correlations_csv(args.correlations)
    results = {}
    for pair, x in matrices.items():
        row = {"c1": bound_c1(x), "c2": bound_c2(x), "c2_opt": c2_opt_value(x)}
        results[pair] = row
        print(
            f"pair {pair}: C1 {row['c1']:.6g}, C2 {row['c2']:.6g}, "
            + (f"C2_opt {row['c2_opt']:.6g}" if not math.isnan(row["c2_opt"]) else "C2_opt n/a (asymmetric)")
        )
    manifest = emit_bounds_outputs(matrices, results, args.out, BUILD_ID)
    print(f"wrote {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitchain",
        description="Entanglement dynamics of open qubit chains: scenario runs, "
        "steady-state scans, and correlation-based entanglement bounds.",
    )
    parser.add_argument("--version", action="version", version=BUILD_ID)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config into an output directory")
    p_run.add_argument("--config", required=True, help="scenario config (JSON)")
    p_run.add_argument("--out", required=True, help="run directory to create")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=1, help="ensemble worker threads")
    p_run.add_argument("--solver", choices=("exact", "mps"), default=None, help="override the solver")
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", help="steady-state scan over a noise-strength grid")
    p_scan.add_argument("--config", required=True, help="scan config (JSON)")
    p_scan.add_argument("--out", required=True, help="output directory")
    p_scan.set_defaults(func=cmd_scan)

    p_bounds = sub.add_parser("bounds", help="entanglement bounds from measured correlations")
    p_bounds.add_argument("--correlations", required=True, help="CSV with columns i,j,a,b,value")
    p_bounds.add_argument("--out", required=True, help="output directory")
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _write_error(args.out, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
