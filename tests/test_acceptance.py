"""Acceptance suite: one test per shipped guarantee, at stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion as it completes.  The long jobs (the N=40 reproductions and one
N=9 steady-state point) are skipped unless QUBITCHAIN_LONG_JOBS=1.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import qubitchain as qc
from conftest import dense, mps_to_dense, random_density_matrix, whole
from qubitchain.harness import (
    ScanConfig,
    ScenarioConfig,
    first_maximum,
    propagate,
    run_scenario,
    steady_state_scan,
)
from qubitchain.lindblad import density, sample_grid, stream
from qubitchain.mps import (
    MixedTebdEngine,
    mps_from_product,
    reduced_pair_dm,
    reduced_sites_dm,
)
from qubitchain.negativity import ReducedState, log_negativity
from qubitchain.witness import SYMMETRY_WARN_LIMIT, asymmetry, correlation_matrix_from_pair

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

GROUND_LOCAL = np.diag([1.0, 0.0]).astype(complex)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)


def load_config(name: str, **overrides) -> ScenarioConfig:
    data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


def en_of_pure(psi: np.ndarray, pair) -> float:
    rs = qc.reduce_statevector(psi, pair)
    return log_negativity(rs, (pair[0],))


def test_criterion_1_bell_state_exactness():
    rho = qc.density_from_pure(qc.eigenbasis_bell_head(2))
    rs = qc.reduce(rho, (1, 2))
    en = log_negativity(rs, (1,))
    x = correlation_matrix_from_pair(rs)
    c1 = qc.bound_c1(x)
    c2 = qc.bound_c2(x)
    c2o = qc.bound_c2_optimized(x).value
    values = {"E_N": en, "C1": c1, "C2": c2, "C2_opt": c2o}
    ok = all(abs(v - 1.0) < 1e-10 for v in values.values())
    report(1, "Bell-state exactness", ok, ", ".join(f"{k}={v:.12f}" for k, v in values.items()))
    assert ok


def test_criterion_2_bound_ordering_audit(rng):
    n_states = 10_000
    violations = []
    for k in range(n_states):
        rho = random_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
        rs = ReducedState((1, 2), rho)
        en = log_negativity(rs, (1,))
        x = correlation_matrix_from_pair(rs)
        if qc.bound_c1(x) > en + 1e-9:
            violations.append(("c1", k))
        if qc.bound_c2(x) > en + 1e-9:
            violations.append(("c2", k))
        # symmetric-X subset for the optimized bound
        rho_s = 0.5 * (rho + SWAP @ rho @ SWAP)
        rs_s = ReducedState((1, 2), rho_s)
        en_s = log_negativity(rs_s, (1,))
        x_s = correlation_matrix_from_pair(rs_s)
        c2_s = qc.bound_c2(x_s)
        c2o_s = qc.bound_c2_optimized(x_s).value
        if c2_s > c2o_s + 1e-9 or c2o_s > en_s + 1e-9:
            violations.append(("c2_opt", k))
    ok = not violations
    report(2, "bound ordering audit", ok, f"{n_states} states, violations: {violations[:5]}")
    assert ok


@pytest.fixture(scope="module")
def noisy_bounds_run():
    spec = qc.ChainSpec.homogeneous(8)
    h = qc.build_hamiltonian_eigen(spec)
    rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
    rho0 = qc.density_from_pure(qc.eigenbasis_product(8))
    return qc.evolve(rho0, h, rates, t_max=50.0, dt=0.05, sample_every=20)


def test_criterion_3_bound_regression_scaled(noisy_bounds_run):
    traj = noisy_bounds_run
    worst_gap = 0.0
    strict_needed = 0
    strict_ok = 0
    admissible = 0
    for t, rho in zip(traj.times, traj.states):
        for pair in ((1, 2), (2, 3), (4, 5)):
            rs = qc.reduce(rho, pair)
            x = correlation_matrix_from_pair(rs)
            if asymmetry(x) >= SYMMETRY_WARN_LIMIT:
                continue
            admissible += 1
            en = log_negativity(rs, (pair[0],))
            c2 = qc.bound_c2(x)
            c2o = qc.bound_c2_optimized(x).value
            if en > 1e-6:
                worst_gap = max(worst_gap, abs(c2o - en))
            off = np.abs(x - np.diag(np.diag(x))).max()
            if off > 0.05:
                strict_needed += 1
                if c2o > c2 + 1e-6:
                    strict_ok += 1
    ok = worst_gap < 1e-3 and admissible > 50 and strict_needed > 0 and strict_ok == strict_needed
    report(
        3,
        "optimized bound tracks E_N on the noisy chain",
        ok,
        f"max|C2_opt-E_N|={worst_gap:.2e} over {admissible} admissible samples; "
        f"C2<C2_opt strict at {strict_ok}/{strict_needed} off-diagonal times",
    )
    assert ok


@pytest.mark.slow
def test_criterion_4_disorder_fluctuation_statistics():
    """std/mean of the first E_N(1,2) maximum over 1000-member ensembles.

    The paper's references are 0.027 at d = 0.05 and 0.054 at d = 0.10, each
    checked within +-30%.  The d = 0.01 expectation is derived from them:

    * `sample_disorder` draws each targeted parameter a as
      a (1 + d (2U - 1)) with U uniform in [0, 1], and the member seeds
      depend only on the master seed and the member index, so the three
      ensembles are the same realizations with the deviations scaled by d.
    * The first maximum is a smooth function of the parameters, so its
      std/mean is c d + O(d^2).  The two references above obey this
      exactly (0.054 / 0.027 = 2.00).
    * The paper's own d = 0.01 anchor, 0.011, is twice the linear value
      0.027 * 0.01 / 0.05 = 0.0054; it would need the O(d^2) terms to
      dominate at the smallest d while vanishing between 0.05 and 0.10.
      The expectation used here is the linear value, with the same +-30%
      band.

    Linearity is also asserted directly: measured[0.10] / measured[0.05]
    must be within 10% of 2.  Measured values: 0.00635, 0.0318, 0.0636
    (slope 18% above the references); the unrefined grid maximum gives the
    same 0.00636 at d = 0.01, so the linearity is not an artefact of the
    parabolic refinement in `first_maximum`.
    """
    references = {0.05: 0.027, 0.10: 0.054}
    targets = {0.01: references[0.05] * 0.01 / 0.05, **references}
    measured = {}
    for d in targets:
        cfg = load_config(
            "generation_disorder",
            disorder={"fraction": d, "targets": ["delta", "coupling"], "ensemble_size": 1000},
            dt=0.25,
            sample_every=1,
            seed=20260809,
        )
        result = run_scenario(cfg)
        measured[d] = result.stats.relative_fluctuation((1, 2))
    checks = {d: abs(measured[d] - ref) <= 0.3 * ref for d, ref in targets.items()}
    ratio = measured[0.10] / measured[0.05]
    linear_ok = abs(ratio - 2.0) <= 0.2
    ok = all(checks.values()) and linear_ok
    detail = "; ".join(
        f"d={d}: {measured[d]:.4f} vs {ref:.4f} +-30% [{'ok' if checks[d] else 'OUT'}]"
        for d, ref in targets.items()
    ) + f"; ratio d=0.10/d=0.05 {ratio:.3f} vs 2 +-10% [{'ok' if linear_ok else 'OUT'}]"
    report(4, "disorder fluctuation statistics", ok, detail)
    assert ok, detail


def test_criterion_5_thermal_fidelity_curve():
    """Ground-state fidelity of the Gibbs state at 1-25 mK, N=8, K_ini = delta/4.

    Anchors: F >= 0.99 from 1 to 15 mK and 0.85 <= F(25 mK) <= 0.95.  For
    delta = 0.1, K = 0.025 and E_C = 1 K the lowest excitation sits near
    delta - K, which puts F(15 mK) at 0.984 and F(25 mK) at 0.845, so both
    anchors are missed; `test_thermal_fidelity_free_fermion_oracle` shows
    that these values are the exact ones for the model.  The anchors would
    hold at N = 4 (0.9925, 0.9207) or at E_C of about 1.15 K (0.9932,
    0.9062); the chain length and charging energy behind the reference curve
    are not recorded, so the test keeps N = 8 and E_C = 1 K and stays red.
    """
    spec = qc.ChainSpec.homogeneous(8, 0.0, 0.1, 0.025)  # K_ini = delta/4
    h = whole(qc.build_hamiltonian_lab(spec))
    g = qc.ground_state(h)
    fid = {t: qc.fidelity(g.vector, qc.thermal_state(h, t * 1e-3, 1.0)) for t in (1, 5, 10, 15, 25)}
    plateau_ok = all(fid[t] >= 0.99 for t in (1, 5, 10, 15))
    near25_ok = 0.85 <= fid[25] <= 0.95
    ok = plateau_ok and near25_ok
    detail = (
        ", ".join(f"F({t}mK)={v:.4f}" for t, v in fid.items())
        + f"; >= 0.99 up to 15 mK [{'ok' if plateau_ok else 'OUT'}], "
        f"F(25mK) in [0.85, 0.95] [{'ok' if near25_ok else 'OUT'}]"
    )
    report(5, "thermal fidelity curve", ok, detail)
    assert ok, detail


def free_fermion_ground_fidelity(n: int, delta: float, k: float, temperature: float) -> float:
    """<g| exp(-H/T)/Z |g> for the open transverse-field Ising chain.

    H = -1/2 sum delta X_i - 1/2 sum K Z_i Z_{i+1} maps to free fermions
    (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961)); the single-particle
    energies eps_k are the singular values of the N x N bidiagonal matrix
    with delta on the diagonal and K on the superdiagonal.  With open ends
    every occupation pattern is an eigenstate, so F(T) = prod_k
    1 / (1 + exp(-eps_k / T)).  `temperature` is in units of E_C.
    """
    bidiagonal = np.diag(np.full(n, delta)) + np.diag(np.full(n - 1, k), 1)
    eps = np.linalg.svd(bidiagonal, compute_uv=False)
    return float(np.prod(1.0 / (1.0 + np.exp(-eps / temperature))))


def test_thermal_fidelity_free_fermion_oracle():
    """The dense Gibbs-state fidelity of criterion 5 equals the exact free-fermion value."""
    n, delta, k = 8, 0.1, 0.025
    h = whole(qc.build_hamiltonian_lab(qc.ChainSpec.homogeneous(n, 0.0, delta, k)))
    g = qc.ground_state(h)
    for t in (1, 5, 10, 15, 25):
        fid = qc.fidelity(g.vector, qc.thermal_state(h, t * 1e-3, 1.0))
        assert fid == pytest.approx(free_fermion_ground_fidelity(n, delta, k, t * 1e-3), abs=1e-10)


@pytest.fixture(scope="module")
def ideal_generation_series():
    spec = qc.ChainSpec.homogeneous(8)
    h = qc.build_hamiltonian_eigen(spec)
    times, e12, e18 = [], [], []
    for ts, acc in propagate(qc.eigenbasis_product(8), h, qc.RateSet.zero(8), 300.0, 0.5):
        times.extend(ts)
        e12.extend(log_negativity(acc((1, 2)), (1,)))
        e18.extend(log_negativity(acc((1, 8)), (1,)))
    return np.array(times), np.array(e12), np.array(e18)


def test_criterion_6_collapse_and_revival(ideal_generation_series):
    times, e12, e18 = ideal_generation_series
    peak_idx = int(np.argmax(e18))
    peak_time = times[peak_idx]
    window = (times >= peak_time - 15) & (times <= peak_time + 15)
    flat_range = e12[window].max() - e12[window].min()
    global_range = e12.max() - e12.min()
    in_window = 150.0 <= peak_time <= 250.0
    prominent = e18[peak_idx] > 0.1
    flat = flat_range < 0.1 * global_range
    ok = in_window and prominent and flat
    report(
        6,
        "collapse-and-revival",
        ok,
        f"E_N(1,8) peak {e18[peak_idx]:.4f} at t={peak_time:.1f}; "
        f"E_N(1,2) variation in window {flat_range:.4f} vs global range {global_range:.4f}",
    )
    assert ok


def pair_log_negativity_first_order(delta: float, k_ini: float) -> float:
    """E_N of one bond in the ground state of the weakly coupled chain.

    At epsilon = 0 the eigenbasis Hamiltonian is H' = -1/2 sum w Z -
    1/2 sum K X X.  To first order in K each bond of its ground state reads
    |00> + a |11> with a = K / (4 delta) (coupling K/2 over the cost 2 delta
    of flipping two sites), whose log-negativity is log2(1 + 2a / (1 + a^2)).
    Neighbouring bonds correct this by O(a).
    """
    a = k_ini / (4.0 * delta)
    return math.log2(1.0 + 2.0 * a / (1.0 + a * a))


def test_criterion_7_quench_deviation_bounds(ideal_generation_series):
    """Quench from the ground state of a weakly coupled chain vs the product start.

    Checked: the first-maximum deviation from the ideal product start is
    < 5% at K_ini = delta/100 and in [5%, 35%] at K_ini = delta/10, where
    the initial pair log-negativity E_N(0) must lie in [0.05, 0.15].

    The paper's anchor E_N(0) < 0.004 at K_ini = delta/100 contradicts the
    E_N(0) >= 0.05 anchor at delta/10: together they need E_N(0) to grow at
    least 12.5-fold over a ten-fold K_ini.  For one bond the first-order
    form `pair_log_negativity_first_order` is linear in K_ini and concave
    above, so it grows at most ten-fold; for the chain this is measured, not
    derived (E_N(0) = 0.00719 and 0.0694, a ratio of 9.66).  No negativity
    convention (N, 2N, log2, ln) meets both anchors, so one of them must go.
    The delta/10 band is kept because the closed form lands inside it
    (0.0704), whereas at delta/100 it gives 0.00720, outside the < 0.004
    bound; 0.004 would need K_ini of about delta/180.  This is a judgment:
    the reference does not say which K_ini or quantity its 0.004 used.  The
    test instead requires E_N(0) at delta/100 to be within 1% of the
    closed form (0.007195; the dense result is 0.13% below it, the expected
    O(a) correction from the neighbouring bonds with a = 0.0025).
    """
    times, e12_ideal, _ = ideal_generation_series
    short = times <= 40.0
    fm_ideal = first_maximum(times[short], e12_ideal[short])

    spec = qc.ChainSpec.homogeneous(8)
    h_fin = qc.build_hamiltonian_eigen(spec)
    energies, vectors = np.linalg.eigh(dense(h_fin))
    tgrid = np.arange(0.0, 40.0 + 1e-9, 0.25)

    def quench_run(k_ini):
        g = qc.ground_state(qc.build_hamiltonian_eigen(spec.with_coupling(k_ini)))
        coeff = vectors.conj().T @ g.vector
        series = []
        for t in tgrid:
            psi = vectors @ (np.exp(-1j * energies * t) * coeff)
            series.append(en_of_pure(psi, (1, 2)))
        series = np.array(series)
        fm = first_maximum(tgrid, series)
        deviation = abs(fm.value - fm_ideal.value) / fm_ideal.value
        return series[0], deviation

    en0_small, dev_small = quench_run(0.001)  # delta / 100
    en0_large, dev_large = quench_run(0.01)  # delta / 10
    en0_small_expected = pair_log_negativity_first_order(spec.delta[0], 0.001)

    small_dev_ok = dev_small < 0.05
    small_en0_ok = abs(en0_small - en0_small_expected) <= 0.01 * en0_small_expected
    large_dev_ok = 0.05 <= dev_large <= 0.35
    large_en0_ok = 0.05 <= en0_large <= 0.15
    ok = small_dev_ok and small_en0_ok and large_dev_ok and large_en0_ok
    detail = (
        f"K_ini=delta/100: dev={dev_small:.3%} vs < 5% [{'ok' if small_dev_ok else 'OUT'}], "
        f"E_N(0)={en0_small:.6f} vs closed form {en0_small_expected:.6f} +-1% "
        f"[{'ok' if small_en0_ok else 'OUT'}]; "
        f"K_ini=delta/10: dev={dev_large:.3%} vs [5%, 35%] [{'ok' if large_dev_ok else 'OUT'}], "
        f"E_N(0)={en0_large:.4f} vs [0.05, 0.15] [{'ok' if large_en0_ok else 'OUT'}]"
    )
    report(7, "quench-deviation bounds", ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_8_steady_state_non_monotonicity():
    scan_cfg = ScanConfig.from_dict(json.loads((CONFIG_DIR / "steady_scan.json").read_text()))
    result = steady_state_scan(scan_cfg)
    classes = result.classifications
    non_monotone = [r for r, c in classes.items() if c == "non_monotone"]
    uncertified = [p for p in result.points if p.applicable and not p.converged]
    transient_ok = True
    for ratio in scan_cfg.coupling_ratios:
        row = result.row(ratio)
        fm = [p.first_max for p in row]
        if any(b > a + 1e-9 for a, b in zip(fm, fm[1:])):
            transient_ok = False
    ok = bool(non_monotone) and transient_ok and not uncertified
    report(
        8,
        "steady-state non-monotonicity",
        ok,
        f"classes={ {f'{r:g}': c for r, c in sorted(classes.items())} }, "
        f"first-max monotone in Gamma: {transient_ok}, uncertified: {len(uncertified)}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_9a_mps_oracle_equivalence():
    spec = qc.ChainSpec.homogeneous(6)
    h = qc.build_hamiltonian_eigen(spec)
    rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
    rho0 = qc.density_from_pure(qc.eigenbasis_product(6))
    dense = qc.evolve(rho0, h, rates, t_max=50.0, dt=0.025, sample_every=40)

    engine = MixedTebdEngine(spec, rates, 0.05, bond_dim=64)
    state = mps_from_product([GROUND_LOCAL] * 6)
    worst = 0.0
    steps_done = 0
    for t, rho_ref in zip(dense.times, dense.states):
        target = int(round(t / 0.05))
        while steps_done < target:
            state = engine.step(state)
            steps_done += 1
        for pair in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)):
            en_ref = qc.pair_log_negativity(rho_ref, *pair)
            en_mps = log_negativity(reduced_pair_dm(state, *pair), (pair[0],))
            worst = max(worst, abs(en_ref - en_mps))
    ok = worst < 1e-4
    report(9, "MPS oracle equivalence (N=6, D=64)", ok, f"max adjacent-pair deviation {worst:.2e}")
    assert ok


def test_criterion_9b_mps_fourth_order_convergence():
    spec = qc.ChainSpec.homogeneous(4)
    rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
    h = qc.build_hamiltonian_eigen(spec)
    rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
    ref = qc.evolve(rho0, h, rates, t_max=4.0, dt=0.002, sample_every=2000).states[-1]
    errors = {}
    for dt in (0.4, 0.2):
        engine = MixedTebdEngine(spec, rates, dt, bond_dim=64)
        state = mps_from_product([GROUND_LOCAL] * 4)
        for _ in range(int(round(4.0 / dt))):
            state = engine.step(state)
        errors[dt] = float(np.linalg.norm(mps_to_dense(state) - ref))
    ratio = errors[0.4] / errors[0.2]
    ok = 8.0 < ratio < 32.0
    report(
        9,
        "MPS dt-halving shows order-4 convergence",
        ok,
        f"errors {errors[0.4]:.2e} -> {errors[0.2]:.2e}, ratio {ratio:.1f} (16 expected)",
    )
    assert ok


@pytest.mark.slow
def test_criterion_9c_long_chain_qualitative():
    n = 16
    spec = qc.ChainSpec.homogeneous(n)
    rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
    dt = 0.1
    engine = MixedTebdEngine(spec, rates, dt, bond_dim=60)
    state = mps_from_product([GROUND_LOCAL] * n)
    check_times = (10.0, 15.0)
    locality_ok = True
    boundary_ok = True
    ratios = []
    done = 0
    for t_check in check_times:
        while done < int(round(t_check / dt)):
            state = engine.step(state)
            done += 1
        for pair in ((1, 5), (2, 6), (5, 9), (1, 8), (6, 11)):
            if log_negativity(reduced_pair_dm(state, *pair), (pair[0],)) >= 1e-4:
                locality_ok = False
        boundary = log_negativity(reduced_pair_dm(state, 1, 2), (1,))
        centre = log_negativity(reduced_pair_dm(state, 8, 9), (8,))
        if boundary < centre - 1e-3:
            boundary_ok = False
        rs4 = reduced_sites_dm(state, (7, 8, 9, 10))
        block = log_negativity(rs4, (7, 8))
        pair_mid = log_negativity(reduced_pair_dm(state, 8, 9), (8,))
        ratios.append(block / pair_mid)
    enhancement = max(ratios) - 1.0
    block_ok = 0.5 * 0.17 <= enhancement <= 1.5 * 0.17
    ok = locality_ok and boundary_ok and block_ok
    report(
        9,
        "long-chain qualitative checks (N=16, D=60)",
        ok,
        f"locality(|i-j|>=4 separable): {locality_ok}, boundary>=centre: {boundary_ok}, "
        f"block enhancement {enhancement:.1%} vs 17% +-50%",
    )
    assert ok


@pytest.mark.slow
def test_criterion_10_conservation_suite():
    failures = []
    purity_detail = ""
    for path in sorted(CONFIG_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if "gammas" in data or data["solver"]["kind"] != "exact":
            continue
        data["t_max"] = min(data["t_max"], 20.0)
        if "disorder" in data:
            data["disorder"]["ensemble_size"] = 1
        cfg = ScenarioConfig.from_dict(data)
        from qubitchain.harness import _member_chain, _prepare_initial, _sector_start

        chain = _member_chain(cfg, 0, cfg.quench.k_fin)
        rates = qc.rates_from_angles(qc.mixing_angles(chain), cfg.effective_noise)
        # The shipped path: the Taylor propagator on the parity blocks of H
        # (one block of every index when epsilon_i != 0).
        rho0, h = _sector_start(_prepare_initial(cfg, 0), qc.build_hamiltonian_eigen(chain))
        times = sample_grid(cfg.t_max, 0.02, 50)
        _, snapshots, trace_drift = zip(*stream(rho0, h, rates, times))
        if max(trace_drift) >= 1e-8:
            failures.append(f"{path.stem}: trace drift {max(trace_drift):.2e}")
        herm_drift = max(float(np.abs(density(r) - density(r).conj().transpose(0, 2, 1)).max()) for r in snapshots)
        if herm_drift >= 1e-12:
            failures.append(f"{path.stem}: hermiticity drift {herm_drift:.2e}")
        min_eig = min(float(np.linalg.eigvalsh(density(r))[:, 0].min()) for r in snapshots)
        if min_eig < -1e-7:
            failures.append(f"{path.stem}: min eigenvalue {min_eig:.2e}")

    # unitary-limit purity over the full production time span
    spec = qc.ChainSpec.homogeneous(4)
    h = qc.build_hamiltonian_eigen(spec)
    rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
    traj = qc.evolve(rho0, h, qc.RateSet.zero(4), t_max=300.0, dt=0.01, sample_every=1000)
    purity_drift = max(abs(np.trace(r @ r).real - 1.0) for r in traj.states)
    purity_detail = f"unitary purity drift over [0,300]: {purity_drift:.2e}"
    if purity_drift >= 1e-8:
        failures.append(purity_detail)

    ok = not failures
    report(10, "conservation suite", ok, purity_detail if ok else "; ".join(failures))
    assert ok, failures


@pytest.mark.longjob
def test_criterion_8_n9_steady_point():
    """Optional long job: one N=9 point of the N=8 scan's K/delta = 1.5 row.

    The point is certified and entangled, and the boundary pair's steady
    E_N is that of N=8 within 1e-6 (they differ by 1.1e-8).
    """
    data = json.loads((CONFIG_DIR / "steady_scan_n8.json").read_text())
    values = {}
    for n in (8, 9):
        point_cfg = {**data, "chain": {**data["chain"], "n_qubits": n}, "coupling_ratios": [1.5], "gammas": [0.1]}
        (point,) = steady_state_scan(ScanConfig.from_dict(point_cfg)).points
        values[n] = point.steady_e_n if point.converged else math.nan
    ok = values[9] > 1e-6 and abs(values[9] - values[8]) < 1e-6
    report(8, "N=9 steady-state point (long job)", ok, f"E_N: N=9 {values[9]:.10f}, N=8 {values[8]:.10f}")
    assert ok


@pytest.mark.longjob
def test_criterion_3_n40_reference_point():
    """Optional long job: the N=40 reference values of the bounds study.

    The trajectory reproduces the reference triple (E_N = C2' = 0.2096,
    C2 = 0.1583) exactly, one unit of 1/E_C earlier than the nominal time;
    the check scans the surrounding window.
    """
    spec = qc.ChainSpec.homogeneous(40)
    rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
    dt = 0.05
    engine = MixedTebdEngine(spec, rates, dt, bond_dim=60)
    state = mps_from_product([GROUND_LOCAL] * 40)
    best = None
    at_t10 = None
    for step in range(1, int(round(11.0 / dt)) + 1):
        state = engine.step(state)
        t = step * dt
        if t < 8.0 - 1e-9 or abs(t * 2 - round(t * 2)) > 1e-9:
            continue
        rs = reduced_pair_dm(state, 10, 11)
        en = log_negativity(rs, (10,))
        x = correlation_matrix_from_pair(rs)
        c2 = qc.bound_c2(x)
        c2o = qc.bound_c2_optimized(x).value
        miss = max(abs(en - 0.2096), abs(c2 - 0.1583), abs(c2o - 0.2096))
        if best is None or miss < best[1]:
            best = (t, miss)
        if abs(t - 10.0) < 1e-9:
            at_t10 = (en, c2, c2o)
    structural_ok = abs(at_t10[2] - at_t10[0]) < 1e-3  # C2' = E_N at the stated time
    point_ok = best[1] < 0.01
    ok = structural_ok and point_ok
    report(
        3,
        "N=40 reference-point reproduction (long job)",
        ok,
        f"best match at t={best[0]:.2f} (max miss {best[1]:.4f}); "
        f"at t=10: E_N={at_t10[0]:.4f}, C2={at_t10[1]:.4f}, C2_opt={at_t10[2]:.4f}",
    )
    assert ok


@pytest.mark.longjob
def test_criterion_9_n40_matches_short_chain():
    """Optional long job: N=40 first-maximum statistics against N=8."""
    spec40 = qc.ChainSpec.homogeneous(40)
    rates40 = qc.rates_from_angles(qc.mixing_angles(spec40), qc.NoiseSpec(0.01, 0.0))
    dt = 0.05
    engine = MixedTebdEngine(spec40, rates40, dt, bond_dim=60)
    state = mps_from_product([GROUND_LOCAL] * 40)
    times = []
    series_12 = []
    for step in range(1, int(round(25.0 / dt)) + 1):
        state = engine.step(state)
        t = step * dt
        if abs(t * 4 - round(t * 4)) < 1e-9:
            times.append(t)
            series_12.append(log_negativity(reduced_pair_dm(state, 1, 2), (1,)))
    fm40 = first_maximum(np.array(times), np.array(series_12))

    spec8 = qc.ChainSpec.homogeneous(8)
    h8 = qc.build_hamiltonian_eigen(spec8)
    rates8 = qc.rates_from_angles(qc.mixing_angles(spec8), qc.NoiseSpec(0.01, 0.0))
    rho0 = qc.density_from_pure(qc.eigenbasis_product(8))
    traj = qc.evolve(rho0, h8, rates8, t_max=25.0, dt=0.05, sample_every=5)
    series8 = np.array([qc.pair_log_negativity(r, 1, 2) for r in traj.states])
    fm8 = first_maximum(traj.times, series8)

    deviation = abs(fm40.value - fm8.value) / fm8.value
    ok = deviation < 0.05
    report(
        9,
        "N=40 vs N=8 first maximum (long job)",
        ok,
        f"N=40 {fm40.value:.4f} vs N=8 {fm8.value:.4f}: deviation {deviation:.2%}",
    )
    assert ok
