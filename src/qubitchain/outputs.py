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

from .witness import asymmetry, asymmetry_flags

TIMESERIES_COLUMNS = ("time", "pair_i", "pair_j", "e_n", "c1", "c2", "c2_opt", "ensemble_mean_flag")

_SVG_COLORS = ("#1f6fb2", "#c23b22", "#2e8b57", "#8b5d9e", "#b8860b", "#444444")


def _fmt(value: float) -> str:
    """Full-precision decimal text for a float; empty for NaN."""
    return "" if math.isnan(value) else repr(float(value))


def _or_null(value: float) -> float | None:
    """`value`, or None (JSON null) for NaN, which JSON has no number for."""
    return None if math.isnan(value) else value


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1, allow_nan=False)


def config_hash(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class RunDirectory:
    """One output directory: each file is checksummed from the bytes on disk,
    and `manifest` lists them all, so a complete manifest certifies a
    complete run.

    An earlier run into the same directory is removed first: its
    `manifest.json`, the files that manifest lists and any `error.json`.
    Files the package did not write stay.
    """

    def __init__(self, out_dir: str | Path):
        self.path = Path(out_dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}
        stale = ["error.json", "manifest.json"]
        try:
            stale += list(json.loads((self.path / "manifest.json").read_text())["files"])
        except (OSError, ValueError, KeyError, TypeError):
            pass  # no earlier manifest, or not one this package wrote
        for name in stale:
            # Only plain file names: a manifest is a file anyone can edit.
            path = self.path / str(name)
            if path.parent == self.path and path.is_file():
                path.unlink()

    def text(self, name: str, text: str) -> None:
        path = self.path / name
        path.write_text(text)
        self.files[name] = sha256_file(path)

    def json(self, name: str, data) -> None:
        self.text(name, canonical_json(data) + "\n")

    def csv(self, name: str, columns, rows) -> None:
        """Header of `columns`, then one line per row of cell strings."""
        self.text(name, "\n".join([",".join(columns), *(",".join(cells) for cells in rows)]) + "\n")

    def manifest(self, **fields) -> Path:
        path = self.path / "manifest.json"
        path.write_text(canonical_json({**fields, "files": self.files}) + "\n")
        return path


def timeseries_rows(times, series: dict, ensemble_mean: bool):
    """Pair observables in the fixed column order, one row per (time, pair)."""
    flag = "1" if ensemble_mean else "0"
    for (i, j), values in sorted(series.items()):
        for k, t in enumerate(times):
            measured = (_fmt(values[m][k]) if m in values else "" for m in TIMESERIES_COLUMNS[3:7])
            yield [_fmt(t), str(i), str(j), *measured, flag]


def keyed_rows(times, series: dict, label=str):
    """One row per (key, time): the time, both halves of the key, the value."""
    for (a, b), values in sorted(series.items()):
        for k, t in enumerate(times):
            yield [_fmt(t), label(a), label(b), _fmt(values[k])]


def scan_rows(points):
    for p in points:
        steady = [_fmt(p.steady_e_n), "1" if p.converged else "0", _fmt(p.residual)]
        yield [
            _fmt(p.coupling_ratio),
            _fmt(p.gamma),
            *(steady if p.applicable else ["", "", ""]),
            _fmt(p.first_max),
            "1" if p.applicable else "0",
        ]


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


def svg_chart(times, series: dict, title: str) -> str:
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
    return "\n".join(p for p in parts if p) + "\n"


def emit_outputs(result, out_dir: str | Path, build_id: str) -> Path:
    """Persist a ResultSet as a run directory; returns the manifest path.

    Always writes config.json, stats.json and manifest.json; timeseries
    files only when observables were tracked.  A single-member run writes
    its member's series, which is also its mean.
    """
    config, times = result.config, result.times
    config_dict = config.to_dict()
    run = RunDirectory(out_dir)
    run.json("config.json", config_dict)

    ensemble = config.ensemble_size > 1
    if config.observables.pairs:
        run.csv("timeseries.csv", TIMESERIES_COLUMNS, timeseries_rows(times, result.stats.mean, ensemble))
        if ensemble:
            run.csv("timeseries_std.csv", TIMESERIES_COLUMNS, timeseries_rows(times, result.stats.std, True))
        label = "ensemble mean" if ensemble else "trajectory"
        for i, j in sorted(result.pair_series):
            run.text(f"pair_{i}_{j}.svg", svg_chart(times, result.stats.mean[(i, j)], f"pair ({i}, {j}) {label}"))

    if result.block_series:
        mean_blocks = {b: series.mean(axis=0) for b, series in result.block_series.items()}
        rows = keyed_rows(times, mean_blocks, label=lambda block: "+".join(map(str, block)))
        run.csv("blocks.csv", ("time", "block_a", "block_b", "e_n"), rows)

    if result.frozen_axes_series is not None:
        columns = ("time", "pair_i", "pair_j", "c2_frozen")
        run.csv("frozen_axes.csv", columns, keyed_rows(times, result.frozen_axes_series))

    stats = result.stats
    run.json(
        "stats.json",
        {
            "first_maximum": {
                f"{p[0]},{p[1]}": {
                    "mean_value": _or_null(stats.first_max_mean(p)),
                    "mean_time": _or_null(stats.first_max_mean_time(p)),
                    "relative_fluctuation": _or_null(stats.relative_fluctuation(p)),
                    "values": [_or_null(v) for v in stats.first_max_values[p]],
                }
                for p in config.observables.pairs
            },
            "frozen_axes": result.frozen_axes_info,
        },
    )

    return run.manifest(
        schema_version=config_dict["schema_version"],
        name=config.name,
        build=build_id,
        seed=config.seed,
        config_hash=config_hash(config_dict),
        ensemble_size=config.ensemble_size,
        noise={**vars(config.effective_noise), "temperature_mk": config.noise_temperature_mk},
        sample_times={"count": len(times), "t_max": float(times[-1])},
        flags=sorted(set(result.flags)),
    )


def emit_scan_outputs(scan_result, out_dir: str | Path, build_id: str) -> Path:
    config_dict = scan_result.config.to_dict()
    uncertified = [p for p in scan_result.points if p.applicable and not p.converged]
    run = RunDirectory(out_dir)
    run.json("config.json", config_dict)
    columns = ("coupling_ratio", "gamma", "steady_e_n", "converged", "residual", "first_max", "applicable")
    run.csv("scan.csv", columns, scan_rows(scan_result.points))
    run.json(
        "scan_summary.json",
        {
            "classifications": {repr(r): c for r, c in scan_result.classifications.items()},
            "uncertified_points": [
                {"coupling_ratio": p.coupling_ratio, "gamma": p.gamma, "residual": p.residual} for p in uncertified
            ],
        },
    )
    return run.manifest(
        schema_version=config_dict["schema_version"],
        name=scan_result.config.name,
        build=build_id,
        config_hash=config_hash(config_dict),
        flags=[f"uncertified steady state at ratio {p.coupling_ratio}, gamma {p.gamma}" for p in uncertified],
    )


def emit_bounds_outputs(matrices: dict, results: dict, out_dir: str | Path, build_id: str) -> Path:
    """Persist correlation-bound evaluations of externally measured data."""
    pairs = sorted(results)
    run = RunDirectory(out_dir)
    rows = (
        [str(i), str(j), *(_fmt(results[(i, j)][m]) for m in ("c1", "c2", "c2_opt")), _fmt(asymmetry(matrices[(i, j)]))]
        for i, j in pairs
    )
    run.csv("bounds.csv", ("i", "j", "c1", "c2", "c2_opt", "asymmetry"), rows)
    return run.manifest(
        schema_version=1,
        build=build_id,
        pairs=[list(p) for p in pairs],
        flags=[flag for p in pairs for flag in asymmetry_flags(p, asymmetry(matrices[p]))],
    )
