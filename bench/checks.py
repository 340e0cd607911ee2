"""Correctness checks of one workload's CLI outputs against the oracle kit.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  Tolerances:

* ``E_N_TOL`` for E_N of propagated states: the dense RK4 solver, the
  eigenbasis propagation and the TEBD engine all agree with the oracle to
  below 1e-11 on these workloads; the tolerance leaves two orders of
  magnitude for platform roundoff.
* ``STEADY_TOL`` for steady-state E_N: the program certifies
  ||L rho|| / ||rho|| < 1e-8, and the slowest decay rate at the scanned
  noise strengths is of order Gamma >= 0.05, so the state error can reach
  about 1e-8 / Gamma.
* ``BOUND_TOL`` for the orderings C1 <= E_N, C2 <= C2' <= E_N and frozen
  C2 <= C2': the asymmetry below which the package symmetrizes the
  correlation matrix silently (``SYMMETRY_TOL`` in ``qubitchain.witness``).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle

E_N_TOL = 1e-9
STEADY_TOL = 1e-6
BOUND_TOL = 1e-8


def per_site(value, n: int) -> list[float]:
    return [float(value)] * n if isinstance(value, (int, float)) else [float(v) for v in value]


def _num(cell: str) -> float:
    return math.nan if cell == "" else float(cell)


def read_timeseries(path: Path) -> dict[tuple[int, int], dict[str, np.ndarray]]:
    """{pair: {column: array}} from a timeseries CSV."""
    out: dict[tuple[int, int], dict[str, list]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            cols = out.setdefault((int(row["pair_i"]), int(row["pair_j"])), {})
            for key in ("time", "e_n", "c1", "c2", "c2_opt"):
                cols.setdefault(key, []).append(_num(row[key]))
    return {p: {k: np.array(v) for k, v in cols.items()} for p, cols in out.items()}


def _uniform_grid(times: np.ndarray, what: str, failures: list) -> bool:
    grid = np.linspace(0.0, times[-1], len(times))
    if np.abs(times - grid).max() > 1e-9:
        failures.append(f"{what}: sample times are not a uniform grid from 0")
        return False
    return True


def _compare(label: str, got: np.ndarray, want: np.ndarray, tol: float, failures: list) -> None:
    err = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    if not err <= tol:
        failures.append(f"{label}: max |program - oracle| = {err:.3e} > {tol:.0e}")


def _chain_arrays(cfg: dict, n: int | None = None):
    chain = cfg["chain"]
    n = n or chain["n_qubits"]
    return per_site(chain["epsilon"], n), per_site(chain["delta"], n)


def check_noisy_generation(cfg: dict, out: Path, capture=None) -> list[str]:
    """Dense RK4 run: every E_N sample against the oracle; bound orderings."""
    failures: list[str] = []
    series = read_timeseries(out / "timeseries.csv")
    n = cfg["chain"]["n_qubits"]
    eps, delta = _chain_arrays(cfg)
    h = oracle.hamiltonian(eps, delta, [cfg["quench"]["k_fin"]] * (n - 1))
    lv = oracle.liouvillian(h, eps, delta, cfg["noise"]["gamma"], cfg["noise"]["n_thermal"])
    times = next(iter(series.values()))["time"]
    if not _uniform_grid(times, "noisy_generation", failures):
        return failures
    rho0 = np.zeros((2**n, 2**n))
    rho0[0, 0] = 1.0
    states = oracle.evolve_density(lv, rho0, float(times[-1]), len(times))
    with open(out / "stats.json") as fh:
        frozen_info = json.load(fh)["frozen_axes"]
    frozen = _read_frozen(out / "frozen_axes.csv")
    for (i, j), cols in sorted(series.items()):
        want = [oracle.log_negativity_pair(oracle.pair_from_density(r, i, j)) for r in states]
        _compare(f"E_N({i},{j})", cols["e_n"], want, E_N_TOL, failures)
        en, c1, c2, c2o = cols["e_n"], cols["c1"], cols["c2"], cols["c2_opt"]
        if np.any(c1 > en + BOUND_TOL):
            failures.append(f"C1 > E_N for pair ({i},{j})")
        reported = ~np.isnan(c2o)
        if np.any(c2[reported] > c2o[reported] + BOUND_TOL) or np.any(c2o[reported] > en[reported] + BOUND_TOL):
            failures.append(f"C2 <= C2' <= E_N violated for pair ({i},{j})")
        fz = frozen.get((i, j))
        ref = frozen_info.get(str([i, j]))
        if fz is None or ref is None:
            failures.append(f"frozen-axes series missing for pair ({i},{j})")
            continue
        if np.any(fz > c2o + BOUND_TOL):
            failures.append(f"frozen-axes C2 > C2' for pair ({i},{j})")
        k = int(np.argmin(np.abs(times - ref["reference_time"])))
        if abs(fz[k] - c2o[k]) > BOUND_TOL:
            failures.append(f"frozen-axes C2 != C2' at the reference time for pair ({i},{j})")
    return failures


def _read_frozen(path: Path) -> dict[tuple[int, int], np.ndarray]:
    out: dict[tuple[int, int], list] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault((int(row["pair_i"]), int(row["pair_j"])), []).append(_num(row["c2_frozen"]))
    return {p: np.array(v) for p, v in out.items()}


def disorder_members(cfg: dict, members) -> list:
    """Member chains from the program's own disorder draw (parameters only)."""
    from qubitchain.chain import ChainSpec, DisorderSpec, sample_disorder
    from qubitchain.harness import member_seed

    c = cfg["chain"]
    template = ChainSpec(c["n_qubits"], c["epsilon"], c["delta"], cfg["quench"]["k_fin"],
                         c.get("energy_unit_kelvin", 1.0))
    d = cfg["disorder"]
    return [
        sample_disorder(template, DisorderSpec(d["fraction"], frozenset(d["targets"]),
                                               member_seed(cfg["seed"], m)))
        for m in members
    ]


ORACLE_MEMBERS = 8


def check_disorder_ensemble(cfg: dict, out: Path, capture: Path) -> list[str]:
    """Noiseless ensemble: a seeded subset of members against the oracle.

    The per-member E_N(1,2) array is captured from the CLI process; its mean
    and standard deviation over all members must reproduce the CSV files.
    """
    failures: list[str] = []
    members = np.load(capture)
    mean = read_timeseries(out / "timeseries.csv")[(1, 2)]
    std = read_timeseries(out / "timeseries_std.csv")[(1, 2)]
    times = mean["time"]
    if members.shape != (cfg["disorder"]["ensemble_size"], len(times)):
        return [f"captured member array has shape {members.shape}"]
    _compare("ensemble mean E_N(1,2) vs captured members", mean["e_n"], members.mean(axis=0), 1e-12, failures)
    _compare("ensemble std E_N(1,2) vs captured members", std["e_n"], members.std(axis=0), 1e-12, failures)
    if not _uniform_grid(times, "disorder_ensemble", failures):
        return failures
    rng = np.random.default_rng([cfg["seed"], 1])
    chosen = sorted(rng.choice(len(members), size=ORACLE_MEMBERS, replace=False).tolist())
    n = cfg["chain"]["n_qubits"]
    psi0 = np.zeros(2**n)
    psi0[0] = 1.0
    for m, spec in zip(chosen, disorder_members(cfg, chosen)):
        h = oracle.hamiltonian(spec.epsilon, spec.delta, spec.coupling)
        psis = oracle.evolve_pure(h, psi0, float(times[-1]), len(times))
        want = [oracle.log_negativity_pair(oracle.pair_from_pure(p, 1, 2)) for p in psis]
        _compare(f"member {m} E_N(1,2)", members[m], want, E_N_TOL, failures)
    return failures


LIGHT_CONE_SITES = 8


def check_long_chain_mps(cfg: dict, out: Path, capture=None) -> list[str]:
    """TEBD run: E_N(1,2) against a dense oracle on the first eight sites.

    Over t <= 1.5 at K = 0.025 the influence of site 9 on sites 1 and 2 is
    of order (K t)^6 / 6! = 4e-12, below the tolerance.
    """
    failures: list[str] = []
    series = read_timeseries(out / "timeseries.csv")[(1, 2)]
    times = series["time"]
    if not _uniform_grid(times, "long_chain_mps", failures):
        return failures
    n = LIGHT_CONE_SITES
    eps, delta = _chain_arrays(cfg, n)
    eps, delta = eps[:n], delta[:n]
    h = oracle.hamiltonian(eps, delta, [cfg["quench"]["k_fin"]] * (n - 1))
    lv = oracle.liouvillian(h, eps, delta, cfg["noise"]["gamma"], cfg["noise"]["n_thermal"])
    rho0 = np.zeros((2**n, 2**n))
    rho0[0, 0] = 1.0
    states = oracle.evolve_density(lv, rho0, float(times[-1]), len(times))
    want = [oracle.log_negativity_pair(oracle.pair_from_density(r, 1, 2)) for r in states]
    _compare("E_N(1,2)", series["e_n"], want, E_N_TOL, failures)
    return failures


def check_steady_scan(cfg: dict, out: Path, capture=None) -> list[str]:
    """Steady scan: each point's E_N against the oracle null vector; row classes."""
    failures: list[str] = []
    with open(out / "scan.csv", newline="") as fh:
        points = list(csv.DictReader(fh))
    with open(out / "scan_summary.json") as fh:
        classes = json.load(fh)["classifications"]
    n = cfg["chain"]["n_qubits"]
    eps, delta = _chain_arrays(cfg)
    i, j = cfg.get("pair", (1, 2))
    n_thermal = cfg["n_thermal"]
    oracle_rows: dict[float, list[float]] = {}
    for ratio in cfg["coupling_ratios"]:
        h = oracle.hamiltonian(eps, delta, [ratio * delta[0]] * (n - 1))
        row = [p for p in points if float(p["coupling_ratio"]) == ratio]
        if [float(p["gamma"]) for p in row] != [float(g) for g in cfg["gammas"]]:
            failures.append(f"ratio {ratio}: scan.csv points do not match the Gamma grid")
            continue
        for p in row:
            if p["converged"] != "1":
                failures.append(f"ratio {ratio}, Gamma {p['gamma']}: steady state not certified")
            rho = oracle.steady_state(oracle.liouvillian(h, eps, delta, float(p["gamma"]), n_thermal))
            want = oracle.log_negativity_pair(oracle.pair_from_density(rho, i, j))
            oracle_rows.setdefault(ratio, []).append(want)
            _compare(f"ratio {ratio}, Gamma {p['gamma']} steady E_N", float(p["steady_e_n"]), want,
                     STEADY_TOL, failures)
        expected = oracle.classify_row(oracle_rows.get(ratio, []))
        got = classes.get(repr(float(ratio)))
        if got != expected:
            failures.append(f"ratio {ratio}: class {got!r}, oracle values give {expected!r}")
    if "non_monotone" not in {oracle.classify_row(v) for v in oracle_rows.values()}:
        failures.append("no non_monotone row: the paper's non-monotonicity is not reproduced")
    return failures


CHECKS = {
    "noisy_generation": check_noisy_generation,
    "disorder_ensemble": check_disorder_ensemble,
    "long_chain_mps": check_long_chain_mps,
    "steady_scan": check_steady_scan,
}
