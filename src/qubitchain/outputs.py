"""Run-directory persistence: CSV time series, SVG charts, manifests.

Every writer here is deterministic: identical inputs produce byte-identical
files (floats are written with repr, which round-trips), so re-running a
scenario with the same config and seed reproduces the run directory
exactly.  The manifest lists every emitted file with its SHA-256 checksum
plus the config hash, seed, build identifier, and any warning flags.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TIMESERIES_COLUMNS = ("time", "pair_i", "pair_j", "e_n", "c1", "c2", "c2_opt", "ensemble_mean_flag")

_SVG_COLORS = ("#1f6fb2", "#c23b22", "#2e8b57", "#8b5d9e", "#b8860b", "#444444")


def _fmt(value: float) -> str:
    """Full-precision decimal text for a float; empty for missing values."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1)


def config_hash(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_timeseries_csv(
    path: Path,
    times: np.ndarray,
    rows: dict[tuple[int, int], dict[str, np.ndarray]],
    ensemble_mean: bool,
) -> None:
    """Pair observables in the fixed column order, one row per (time, pair)."""
    lines = [",".join(TIMESERIES_COLUMNS)]
    flag = "1" if ensemble_mean else "0"
    for pair in sorted(rows):
        values = rows[pair]
        for k, t in enumerate(times):
            cells = [
                _fmt(float(t)),
                str(pair[0]),
                str(pair[1]),
                _fmt(values["e_n"][k]) if "e_n" in values else "",
                _fmt(values["c1"][k]) if "c1" in values else "",
                _fmt(values["c2"][k]) if "c2" in values else "",
                _fmt(values["c2_opt"][k]) if "c2_opt" in values else "",
                flag,
            ]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def write_blocks_csv(path: Path, times: np.ndarray, blocks: dict[tuple, np.ndarray]) -> None:
    lines = ["time,block_a,block_b,e_n"]
    for (a, b), series in sorted(blocks.items()):
        for k, t in enumerate(times):
            lines.append(
                ",".join(
                    [_fmt(float(t)), "+".join(map(str, a)), "+".join(map(str, b)), _fmt(series[k])]
                )
            )
    path.write_text("\n".join(lines) + "\n")


def write_frozen_axes_csv(path: Path, times: np.ndarray, series: dict[tuple[int, int], np.ndarray]) -> None:
    lines = ["time,pair_i,pair_j,c2_frozen"]
    for pair in sorted(series):
        for k, t in enumerate(times):
            lines.append(",".join([_fmt(float(t)), str(pair[0]), str(pair[1]), _fmt(series[pair][k])]))
    path.write_text("\n".join(lines) + "\n")


def write_scan_csv(path: Path, points) -> None:
    lines = ["coupling_ratio,gamma,steady_e_n,converged,residual,first_max,applicable"]
    for p in points:
        lines.append(
            ",".join(
                [
                    _fmt(p.coupling_ratio),
                    _fmt(p.gamma),
                    _fmt(p.steady_e_n) if p.applicable else "",
                    ("1" if p.converged else "0") if p.applicable else "",
                    _fmt(p.residual) if p.applicable else "",
                    _fmt(p.first_max),
                    "1" if p.applicable else "0",
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _svg_polyline(xs, ys, x0, x1, y0, y1, color) -> str:
    # map data to a 640x400 canvas with 60/20 px margins
    pts = []
    for x, y in zip(xs, ys):
        if math.isnan(y):
            continue
        px = 60 + (x - x0) / (x1 - x0 or 1.0) * 560
        py = 380 - (y - y0) / (y1 - y0 or 1.0) * 360
        pts.append(f"{px:.2f},{py:.2f}")
    if not pts:
        return ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>'


def write_svg(path: Path, times: np.ndarray, series: dict[str, np.ndarray], title: str) -> None:
    """Minimal deterministic line chart of the given named series."""
    x0, x1 = float(times[0]), float(times[-1])
    finite = [v for s in series.values() for v in s if not math.isnan(v)]
    y0 = 0.0
    y1 = max(finite) * 1.05 if finite and max(finite) > 0 else 1.0
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" viewBox="0 0 640 400">',
        '<rect width="640" height="400" fill="white"/>',
        f'<text x="320" y="16" text-anchor="middle" font-size="13" font-family="sans-serif">{title}</text>',
        '<line x1="60" y1="380" x2="620" y2="380" stroke="black" stroke-width="1"/>',
        '<line x1="60" y1="20" x2="60" y2="380" stroke="black" stroke-width="1"/>',
        f'<text x="60" y="395" font-size="10" font-family="sans-serif">{x0:g}</text>',
        f'<text x="620" y="395" text-anchor="end" font-size="10" font-family="sans-serif">{x1:g}</text>',
        f'<text x="55" y="383" text-anchor="end" font-size="10" font-family="sans-serif">{y0:g}</text>',
        f'<text x="55" y="25" text-anchor="end" font-size="10" font-family="sans-serif">{y1:.4g}</text>',
        f'<text x="340" y="395" text-anchor="middle" font-size="11" font-family="sans-serif">time (1/E_C)</text>',
    ]
    for k, (name, ys) in enumerate(series.items()):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        parts.append(_svg_polyline(times, ys, x0, x1, y0, y1, color))
        parts.append(
            f'<text x="{70 + 90 * k}" y="32" font-size="11" font-family="sans-serif" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(p for p in parts if p) + "\n")


def emit_outputs(result, out_dir: str | Path, build_id: str) -> Path:
    """Persist a ResultSet as a run directory; returns the manifest path.

    Always writes config.json and manifest.json; timeseries files only when
    observables were tracked.  The manifest carries flags and checksums and
    is written last, so a complete manifest certifies a complete run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_dict = result.config.to_dict()
    files: list[Path] = []

    cfg_path = out / "config.json"
    cfg_path.write_text(canonical_json(config_dict) + "\n")
    files.append(cfg_path)

    ensemble = result.config.ensemble_size > 1
    if result.config.observables.pairs:
        ts_path = out / "timeseries.csv"
        if ensemble:
            write_timeseries_csv(ts_path, result.times, result.stats.mean, True)
            std_path = out / "timeseries_std.csv"
            write_timeseries_csv(std_path, result.times, result.stats.std, True)
            files.append(std_path)
        else:
            single = {
                p: {m: result.pair_series[p][m][0] for m in result.pair_series[p]}
                for p in result.pair_series
            }
            write_timeseries_csv(ts_path, result.times, single, False)
        files.append(ts_path)

        for pair in sorted(result.pair_series):
            source = result.stats.mean[pair] if ensemble else {
                m: result.pair_series[pair][m][0] for m in result.pair_series[pair]
            }
            svg_path = out / f"pair_{pair[0]}_{pair[1]}.svg"
            label = "ensemble mean" if ensemble else "trajectory"
            write_svg(svg_path, result.times, source, f"pair ({pair[0]}, {pair[1]}) {label}")
            files.append(svg_path)

    if result.block_series:
        blocks_path = out / "blocks.csv"
        mean_blocks = {b: result.block_series[b].mean(axis=0) for b in result.block_series}
        write_blocks_csv(blocks_path, result.times, mean_blocks)
        files.append(blocks_path)

    if result.frozen_axes_series is not None:
        fa_path = out / "frozen_axes.csv"
        write_frozen_axes_csv(fa_path, result.times, result.frozen_axes_series)
        files.append(fa_path)

    stats = {
        "first_maximum": {
            f"{p[0]},{p[1]}": {
                "mean_value": result.stats.first_max_mean(p),
                "mean_time": result.stats.first_max_mean_time(p),
                "relative_fluctuation": result.stats.relative_fluctuation(p),
                "values": [None if math.isnan(v) else v for v in result.stats.first_max_values[p]],
            }
            for p in result.config.observables.pairs
        },
        "frozen_axes": result.frozen_axes_info,
    }
    stats_path = out / "stats.json"
    stats_path.write_text(canonical_json(stats) + "\n")
    files.append(stats_path)

    manifest = {
        "schema_version": config_dict["schema_version"],
        "name": result.config.name,
        "build": build_id,
        "seed": result.config.seed,
        "config_hash": config_hash(config_dict),
        "ensemble_size": result.config.ensemble_size,
        "noise": {
            "gamma": result.config.noise.gamma,
            "n_thermal": result.config.noise.n_thermal,
            "temperature_mk": result.config.noise_temperature_mk,
        },
        "sample_times": {"count": len(result.times), "t_max": float(result.times[-1])},
        "flags": sorted(set(result.flags)),
        "files": {f.name: sha256_file(f) for f in files},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(canonical_json(manifest) + "\n")
    return manifest_path


def emit_scan_outputs(scan_result, out_dir: str | Path, build_id: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_dict = scan_result.config.to_dict()
    files = []

    cfg_path = out / "config.json"
    cfg_path.write_text(canonical_json(config_dict) + "\n")
    files.append(cfg_path)

    scan_path = out / "scan.csv"
    write_scan_csv(scan_path, scan_result.points)
    files.append(scan_path)

    summary = {
        "classifications": {repr(r): c for r, c in scan_result.classifications.items()},
        "uncertified_points": [
            {"coupling_ratio": p.coupling_ratio, "gamma": p.gamma, "residual": p.residual}
            for p in scan_result.points
            if p.applicable and not p.converged
        ],
    }
    summary_path = out / "scan_summary.json"
    summary_path.write_text(canonical_json(summary) + "\n")
    files.append(summary_path)

    manifest = {
        "schema_version": config_dict["schema_version"],
        "name": scan_result.config.name,
        "build": build_id,
        "config_hash": config_hash(config_dict),
        "flags": [
            f"uncertified steady state at ratio {p.coupling_ratio}, gamma {p.gamma}"
            for p in scan_result.points
            if p.applicable and not p.converged
        ],
        "files": {f.name: sha256_file(f) for f in files},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(canonical_json(manifest) + "\n")
    return manifest_path


def emit_bounds_outputs(matrices: dict, results: dict, out_dir: str | Path, build_id: str) -> Path:
    """Persist correlation-bound evaluations of externally measured data."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    path = out / "bounds.csv"
    lines = ["i,j,c1,c2,c2_opt,asymmetry"]
    for pair in sorted(results):
        row = results[pair]
        lines.append(
            ",".join(
                [
                    str(pair[0]),
                    str(pair[1]),
                    _fmt(row["c1"]),
                    _fmt(row["c2"]),
                    _fmt(row["c2_opt"]),
                    _fmt(matrices[pair].asymmetry),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")
    files.append(path)

    manifest = {
        "schema_version": 1,
        "build": build_id,
        "pairs": [list(p) for p in sorted(results)],
        "flags": [
            f"c2_opt unavailable for pair {list(p)} (asymmetric correlations)"
            for p in sorted(results)
            if results[p]["c2_opt"] is None or (isinstance(results[p]["c2_opt"], float) and math.isnan(results[p]["c2_opt"]))
        ],
        "files": {f.name: sha256_file(f) for f in files},
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(canonical_json(manifest) + "\n")
    return manifest_path
