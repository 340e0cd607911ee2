import numpy as np
import pytest

import qubitchain as qc
from conftest import random_density_matrix, unitary_propagate
from qubitchain.lindblad import LindbladGenerator


def two_site_uncoupled(omega=0.1):
    return qc.ChainSpec(2, (0.0, 0.0), (omega, omega), (0.0,))


class TestRates:
    def test_relaxation_only_at_degeneracy(self):
        angles = qc.MixingAngles((np.pi / 2,), (0.1,))
        rates = qc.rates_from_angles(angles, qc.NoiseSpec(0.01, 0.0))
        assert rates.g_relax[0] == pytest.approx(0.01)
        assert rates.g_excite[0] == 0.0
        assert rates.g_dephase[0] == pytest.approx(0.0, abs=1e-30)

    def test_thermal_occupation_splits_rates(self):
        angles = qc.MixingAngles((np.pi / 2,), (0.1,))
        rates = qc.rates_from_angles(angles, qc.NoiseSpec(0.01, 0.1))
        assert rates.g_relax[0] == pytest.approx(0.011)
        assert rates.g_excite[0] == pytest.approx(0.001)

    def test_pure_dephasing_at_theta_zero(self):
        angles = qc.MixingAngles((1e-12,), (0.1,))
        rates = qc.rates_from_angles(angles, qc.NoiseSpec(0.01, 0.0))
        assert rates.g_relax[0] == pytest.approx(0.0, abs=1e-25)
        assert rates.g_dephase[0] == pytest.approx(0.01)

    def test_excitation_cannot_exceed_relaxation(self):
        with pytest.raises(ValueError):
            qc.RateSet((0.001,), (0.002,), (0.0,))


class TestNbar:
    def test_values_at_working_temperatures(self):
        assert qc.nbar_from_temperature(0.1, 0.041) == pytest.approx(0.1, rel=0.10)
        assert qc.nbar_from_temperature(0.1, 0.033) == pytest.approx(0.05, rel=0.10)
        assert qc.nbar_from_temperature(0.1, 0.022) == pytest.approx(0.01, rel=0.10)

    def test_zero_temperature_limit(self):
        assert qc.nbar_from_temperature(0.1, 1e-4) < 1e-40

    def test_round_trip_with_inverse(self):
        t = qc.temperature_from_nbar(0.1, 0.05)
        assert qc.nbar_from_temperature(0.1, t) == pytest.approx(0.05)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qc.nbar_from_temperature(0.0, 0.02)
        with pytest.raises(ValueError):
            qc.nbar_from_temperature(0.1, 0.0)


class TestRhs:
    def test_trace_free_for_any_state(self, rng):
        spec = qc.ChainSpec.homogeneous(3, 0.02, 0.1, 0.025)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.02, 0.3))
        for _ in range(5):
            rho = random_density_matrix(rng, 8)
            out = qc.lindblad_rhs(rho, h, rates)
            assert abs(np.trace(out)) < 1e-14
            assert np.abs(out - out.conj().T).max() < 1e-14

    def test_matches_bruteforce_superoperator(self, rng):
        # Independent oracle: assemble the dissipator from explicit dense
        # jump operators and compare.
        from qubitchain.pauli import SM, SP, SZ, site_operator

        spec = qc.ChainSpec(3, (0.05, 0.0, -0.1), (0.1, 0.12, 0.09), (0.02, 0.03))
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.015, 0.2))
        rho = random_density_matrix(rng, 8)
        expected = -1j * (h @ rho - rho @ h)
        for i in range(1, 4):
            sp = site_operator(SP, i, 3)
            sm = site_operator(SM, i, 3)
            sz = site_operator(SZ, i, 3)
            g, gt, gd = rates.g_relax[i - 1], rates.g_excite[i - 1], rates.g_dephase[i - 1]
            expected += g * (2 * sp @ rho @ sm - rho @ sm @ sp - sm @ sp @ rho)
            expected += gt * (2 * sm @ rho @ sp - rho @ sp @ sm - sp @ sm @ rho)
            expected += gd * (2 * sz @ rho @ sz - 2 * rho)
        out = qc.lindblad_rhs(rho, h, rates)
        assert np.abs(out - expected).max() < 1e-13

    def test_single_qubit_relaxation_closed_form(self):
        spec = two_site_uncoupled()
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
        excited = np.zeros(4, dtype=complex)
        excited[3] = 1.0  # |11>
        traj = qc.evolve(qc.density_from_pure(excited), h, rates, t_max=80.0, dt=0.02, sample_every=200)
        for t, rho in zip(traj.times, traj.states):
            p1 = qc.reduce(rho, (1,)).matrix[1, 1].real
            assert p1 == pytest.approx(np.exp(-2 * 0.01 * t), abs=1e-8)

    def test_superoperator_matches_apply(self, rng):
        spec = qc.ChainSpec(3, (0.05, 0.0, -0.1), (0.1, 0.12, 0.09), (0.02, 0.03))
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.015, 0.2))
        assert min(rates.g_relax + rates.g_excite + rates.g_dephase) > 0
        gen = LindbladGenerator(h, rates)
        rho = random_density_matrix(rng, 8)
        assert np.abs(gen.superoperator() @ rho.ravel() - gen.apply(rho).ravel()).max() < 1e-14

    def test_zero_rates_reduce_to_commutator(self, rng):
        spec = qc.ChainSpec.homogeneous(3)
        h = qc.build_hamiltonian_eigen(spec)
        rho = random_density_matrix(rng, 8)
        out = qc.lindblad_rhs(rho, h, qc.RateSet.zero(3))
        assert np.abs(out - (-1j) * (h @ rho - rho @ h)).max() < 1e-14


class TestEvolve:
    def test_unitary_purity_conserved(self):
        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        traj = qc.evolve(rho0, h, qc.RateSet.zero(4), t_max=50.0, dt=0.01, sample_every=500)
        for rho in traj.states:
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-9

    def test_agrees_with_unitary_oracle(self):
        spec = qc.ChainSpec.homogeneous(5)
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = qc.density_from_pure(qc.eigenbasis_bell_head(5))
        traj = qc.evolve(rho0, h, qc.RateSet.zero(5), t_max=100.0, dt=0.01, sample_every=10_000)
        exact = unitary_propagate(rho0, h, 100.0)
        assert np.linalg.norm(traj.states[-1] - exact) < 1e-7

    def test_snapshot_invariants(self):
        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.02, 0.1))
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        traj = qc.evolve(rho0, h, rates, t_max=30.0, dt=0.05, sample_every=20)
        assert traj.trace_drift.max() < 1e-8
        assert traj.hermiticity_drift.max() < 1e-12
        for rho in traj.states:
            assert np.linalg.eigvalsh(rho)[0] > -1e-7

    def test_halving_dt_leaves_observables_unchanged(self):
        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        series = {}
        for dt in (0.04, 0.02):
            traj = qc.evolve(rho0, h, rates, t_max=20.0, dt=dt, sample_every=int(round(2.0 / dt)))
            series[dt] = np.array([qc.pair_log_negativity(r, 1, 2) for r in traj.states])
        assert np.abs(series[0.04] - series[0.02]).max() < 1e-6

    def test_step_guard(self):
        spec = qc.ChainSpec.homogeneous(3)
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = qc.density_from_pure(qc.eigenbasis_product(3))
        with pytest.raises(ValueError, match="step guard"):
            qc.evolve(rho0, h, qc.RateSet.zero(3), t_max=1.0, dt=2.0)

    def test_first_maximum_decreases_with_noise_strength(self):
        # 4-point Gamma grid at fixed thermal occupation.
        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        angles = qc.mixing_angles(spec)
        peaks = []
        for gamma in (0.0, 0.005, 0.01, 0.02):
            rates = qc.rates_from_angles(angles, qc.NoiseSpec(gamma, 0.1)) if gamma else qc.RateSet.zero(4)
            traj = qc.evolve(rho0, h, rates, t_max=30.0, dt=0.05, sample_every=5)
            series = [qc.pair_log_negativity(r, 1, 2) for r in traj.states]
            peaks.append(max(series))
        assert all(a >= b - 1e-10 for a, b in zip(peaks, peaks[1:]))
        assert peaks[0] > peaks[-1]


class TestSteadyState:
    def test_relaxation_fixed_point_is_local_ground(self):
        spec = two_site_uncoupled()
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.02, 0.0))
        res = qc.steady_state(h, rates, tol=1e-10)
        assert res.converged
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(res.state - expected).max() < 1e-8

    def test_detailed_balance_populations(self):
        n_t = 0.1
        spec = two_site_uncoupled()
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, n_t))
        res = qc.steady_state(h, rates, tol=1e-10)
        assert res.converged
        p1 = qc.reduce(res.state, (1,)).matrix[1, 1].real
        assert p1 == pytest.approx(n_t / (1 + 2 * n_t), abs=1e-7)

    def test_rk4_path_matches_exact_path(self):
        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.05, 0.1))
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        exact = qc.steady_state(h, rates, tol=1e-9)
        from qubitchain import lindblad as lb

        gen = LindbladGenerator(h, rates)
        rho = rho0.copy()
        for _ in range(4000):
            rho = lb._rk4_step(gen, rho, 0.1)
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        assert np.abs(exact.state - rho).max() < 1e-6

    def test_requires_dissipation(self):
        spec = qc.ChainSpec.homogeneous(3)
        h = qc.build_hamiltonian_eigen(spec)
        with pytest.raises(ValueError, match="dissipative"):
            qc.steady_state(h, qc.RateSet.zero(3))

    def test_degenerate_kernel_is_refused(self):
        # Pure dephasing of a homogeneous chain in the eigenbasis frame leaves
        # a two-dimensional kernel of L.  At (3, 0.01) the solve would land on
        # a member with an eigenvalue of about -0.07; at the other inputs on a
        # positive member, which a residual check alone would certify.
        for n, g in ((3, 0.01), (2, 0.01), (3, 0.05), (4, 0.01)):
            h = qc.build_hamiltonian_eigen(qc.ChainSpec.homogeneous(n))
            rates = qc.RateSet((0.0,) * n, (0.0,) * n, (g,) * n)
            with pytest.raises(ValueError, match="not unique"):
                qc.steady_state(h, rates)

    def test_uncertified_result_is_flagged(self):
        spec = qc.ChainSpec.homogeneous(3)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(1e-4, 0.0))
        tol = 0.0  # no residual certifies below zero
        res = qc.steady_state(h, rates, tol=tol)
        assert not res.converged
        assert res.residual >= tol
