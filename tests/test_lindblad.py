import math

import numpy as np
import pytest

import qubitchain as qc
from conftest import dense, random_density_matrix, random_pure_state, site_operator, unitary_propagate, whole
from qubitchain.harness import propagate
from qubitchain.lindblad import LindbladGenerator, block_matrix, block_stack, density, real_form, sample_grid, stream


def sector_rates(n):
    """Relaxation, excitation and dephasing all nonzero and site-dependent."""
    return qc.RateSet(
        tuple(0.010 + 0.002 * i for i in range(n)),
        tuple(0.003 + 0.001 * i for i in range(n)),
        tuple(0.004 + 0.0015 * i for i in range(n)),
    )


def parity_chain(n):
    """An epsilon = 0 chain (two parity blocks) with unequal splittings and couplings."""
    return qc.ChainSpec(n, 0.0, tuple(np.linspace(0.09, 0.12, n)), tuple(np.linspace(0.02, 0.03, n - 1)))


def random_block_diagonal(rng, blocks):
    """A random density matrix with its entries between the blocks set to zero (still a state)."""
    return block_matrix(block_stack(random_density_matrix(rng, sum(map(len, blocks))), blocks), blocks)


def kronecker_liouvillian(h, rates):
    """Dense d^2 x d^2 generator on row-major vec(rho), from explicit jump operators."""
    from qubitchain.pauli import SM, SP, SZ

    n = rates.n_sites
    d = len(h)
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for i in range(1, n + 1):
        for rate, op in ((rates.g_relax, SP), (rates.g_excite, SM), (rates.g_dephase, SZ)):
            jump = site_operator(op, i, n)
            jj = jump.conj().T @ jump
            out += rate[i - 1] * (2 * np.kron(jump, jump.conj()) - np.kron(jj, eye) - np.kron(eye, jj.T))
    return out


def sector_positions(blocks, d):
    """Row-major vec positions of the stacked diagonal blocks within vec(rho)."""
    return np.concatenate([(b[:, None] * d + b[None, :]).ravel() for b in blocks])


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


NAN, INF = math.nan, math.inf
NON_FINITE = {
    "gamma_nan": lambda: qc.NoiseSpec(NAN, 0.0),
    "gamma_inf": lambda: qc.NoiseSpec(INF, 0.0),
    "n_thermal_nan": lambda: qc.NoiseSpec(0.01, NAN),
    "n_thermal_inf": lambda: qc.NoiseSpec(0.01, INF),
    "relax_nan": lambda: qc.RateSet((NAN,), (0.0,), (0.0,)),
    "relax_inf": lambda: qc.RateSet((INF,), (0.0,), (0.0,)),
    "excite_nan": lambda: qc.RateSet((0.01,), (NAN,), (0.0,)),
    "dephase_nan": lambda: qc.RateSet((0.01,), (0.0,), (NAN,)),
    "dephase_inf": lambda: qc.RateSet((0.01,), (0.0,), (INF,)),
    "epsilon_inf": lambda: qc.ChainSpec(3, INF, 0.1, 0.02),
    "epsilon_nan": lambda: qc.ChainSpec(3, (0.0, NAN, 0.0), 0.1, 0.02),
    "delta_nan": lambda: qc.ChainSpec(3, 0.0, NAN, 0.02),
    "delta_inf": lambda: qc.ChainSpec(3, 0.0, INF, 0.02),
    "coupling_nan": lambda: qc.ChainSpec(3, 0.0, 0.1, (0.02, NAN)),
    "coupling_minus_inf": lambda: qc.ChainSpec(3, 0.0, 0.1, -INF),
    "energy_unit_nan": lambda: qc.ChainSpec(3, 0.0, 0.1, 0.02, NAN),
    "energy_unit_inf": lambda: qc.ChainSpec(3, 0.0, 0.1, 0.02, INF),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_values_are_refused(case):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE[case]()


class TestNbar:
    def test_values_at_working_temperatures(self):
        assert qc.nbar_from_temperature(0.1, 0.041) == pytest.approx(0.1, rel=0.10)
        assert qc.nbar_from_temperature(0.1, 0.033) == pytest.approx(0.05, rel=0.10)
        assert qc.nbar_from_temperature(0.1, 0.022) == pytest.approx(0.01, rel=0.10)

    def test_zero_temperature_limit(self):
        assert qc.nbar_from_temperature(0.1, 1e-4) < 1e-40

    def test_round_trip_with_inverse(self):
        # The inverse in closed form: T = w / ln(1 + 1/n), so T = w / ln 2 gives n = 1.
        assert qc.nbar_from_temperature(0.1, 0.1 / math.log(2)) == pytest.approx(1.0)
        assert qc.nbar_from_temperature(0.1, 0.1 / math.log1p(1 / 0.05)) == pytest.approx(0.05)

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
            out = density(LindbladGenerator(h, rates).apply(real_form(rho)))
            assert abs(np.trace(out)) < 1e-14
            assert np.abs(out - out.conj().T).max() < 1e-14

    def test_matches_bruteforce_superoperator(self, rng):
        # Independent oracle: assemble the dissipator from explicit dense
        # jump operators and compare.
        from qubitchain.pauli import SM, SP, SZ

        spec = qc.ChainSpec(3, (0.05, 0.0, -0.1), (0.1, 0.12, 0.09), (0.02, 0.03))
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.015, 0.2))
        rho = random_density_matrix(rng, 8)
        expected = -1j * (dense(h) @ rho - rho @ dense(h))
        for i in range(1, 4):
            sp = site_operator(SP, i, 3)
            sm = site_operator(SM, i, 3)
            sz = site_operator(SZ, i, 3)
            g, gt, gd = rates.g_relax[i - 1], rates.g_excite[i - 1], rates.g_dephase[i - 1]
            expected += g * (2 * sp @ rho @ sm - rho @ sm @ sp - sm @ sp @ rho)
            expected += gt * (2 * sm @ rho @ sp - rho @ sp @ sm - sp @ sm @ rho)
            expected += gd * (2 * sz @ rho @ sz - 2 * rho)
        out = density(LindbladGenerator(h, rates).apply(real_form(rho)))
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
        assert np.abs(gen.superoperator() @ rho.ravel() - density(gen.apply(real_form(rho))).ravel()).max() < 1e-14
        # The two-block generator of an epsilon = 0 chain, on its sector.
        h = qc.build_hamiltonian_eigen(parity_chain(3))
        blocks = [b for b, _ in h]
        gen = LindbladGenerator(h, sector_rates(3))
        assert gen.shape == (2, 4, 4)
        rho = block_stack(random_density_matrix(rng, 8), blocks)
        assert np.abs(gen.superoperator() @ rho.ravel() - density(gen.apply(real_form(rho))).ravel()).max() < 1e-14

    def test_hermitian_in_hermitian_out(self, rng):
        # On the real form of an exactly Hermitian stack, apply's result is
        # exactly Hermitian and equals the Kronecker generator's.
        h = qc.build_hamiltonian_eigen(parity_chain(4))
        rho = random_density_matrix(rng, 16)
        rho = 0.5 * (rho + rho.conj().T)
        for blocks_of_h, stack in ((h, block_stack(rho, [b for b, _ in h])), (whole(dense(h)), rho[None])):
            gen = LindbladGenerator(blocks_of_h, sector_rates(4))
            out = density(gen.apply(real_form(stack)))
            assert np.array_equal(out, out.conj().transpose(0, 2, 1))
            assert np.abs(gen.superoperator() @ stack.ravel() - out.ravel()).max() < 1e-13

    def test_zero_rates_reduce_to_commutator(self, rng):
        spec = qc.ChainSpec.homogeneous(3)
        h = dense(qc.build_hamiltonian_eigen(spec))
        rho = random_density_matrix(rng, 8)
        out = density(LindbladGenerator(whole(h), qc.RateSet.zero(3)).apply(real_form(rho)))
        assert np.abs(out - (-1j) * (h @ rho - rho @ h)).max() < 1e-14


class TestEvolve:
    def test_stream_prefix_does_not_depend_on_t_max(self, rng):
        spec = qc.ChainSpec.homogeneous(3, 0.02, 0.1, 0.025)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.02, 0.3))
        rho0 = random_density_matrix(rng, 8)[None]
        short = list(stream(rho0, whole(dense(h)), rates, sample_grid(5.0, 0.05, 10)))
        long = stream(rho0, whole(dense(h)), rates, sample_grid(40.0, 0.05, 10))
        assert len(short) == 11
        for (t, rho, *drifts), (t_long, rho_long, *drifts_long) in zip(short, long):
            assert t == t_long and drifts == drifts_long
            assert np.array_equal(rho, rho_long)

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
        for rho in traj.states:
            assert np.abs(rho - rho.conj().T).max() < 1e-12
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

    def test_long_interval_matches_eigenbasis_path(self, rng):
        # dt = 2.0 and samples 10.0 apart, 3.5 times 1/nu (nu = 0.35 bounds
        # ||L||): the Taylor series splits each interval into four substeps.
        spec = qc.ChainSpec.homogeneous(3)
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = random_density_matrix(rng, 8)
        rates = qc.RateSet.zero(3)
        times = sample_grid(50.0, 2.0, 5)
        samples = list(stream(rho0[None], whole(dense(h)), rates, times))
        exact = [acc((1, 2, 3)).matrix[0] for _, acc in propagate(rho0, h, rates, 50.0, 2.0, 5)]
        assert [t for t, *_ in samples] == list(times) and len(exact) == len(times) == 6
        for (_, rho, _), want in zip(samples, exact):
            assert np.abs(density(rho[0]) - want).max() < 1e-12

    def test_stream_matches_expm_multiply(self, rng):
        # scipy's action of the matrix exponential on the sector generator,
        # over ten samples 0.5 apart.
        from scipy.sparse.linalg import expm_multiply

        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.05, 0.1))
        blocks = [b for b, _ in h]
        rho0 = block_stack(random_block_diagonal(rng, blocks), blocks)
        times = sample_grid(4.5, 0.5, 1)
        assert len(times) == 10
        want = expm_multiply(
            LindbladGenerator(h, rates).superoperator(), rho0.ravel(), start=0.0, stop=4.5, num=10, endpoint=True
        )
        for (t, rho, _), vec, t_want in zip(stream(rho0, h, rates, times), want, times):
            assert t == t_want
            assert np.abs(density(rho).ravel() - vec).max() < 1e-12

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

    def test_stream_path_matches_exact_path(self):
        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.05, 0.1))
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        exact = qc.steady_state(h, rates, tol=1e-9)
        *_, (t, rho, _) = stream(rho0[None], whole(dense(h)), rates, sample_grid(400.0, 0.1, 4000))
        assert t == 400.0
        assert np.abs(exact.state - density(rho[0])).max() < 1e-6

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
        # On the parity sector the identities of the even and the odd
        # sector are both stationary, so the kernel stays two-dimensional.
        for n, g in ((3, 0.01), (2, 0.01), (3, 0.05), (4, 0.01)):
            spec = qc.ChainSpec.homogeneous(n)
            h = qc.build_hamiltonian_eigen(spec)
            rates = qc.RateSet((0.0,) * n, (0.0,) * n, (g,) * n)
            for blocks in (whole(dense(h)), h):
                with pytest.raises(ValueError, match="not unique"):
                    qc.steady_state(blocks, rates)

    def test_unique_dephasing_only_chains_are_maximally_mixed(self):
        # The unique side of the degenerate-kernel inputs: with epsilon = 0.05
        # the chain has one block, nothing is conserved but the trace, and
        # pure dephasing (a unital channel) leaves I/d stationary.
        for n in (2, 3, 4):
            spec = qc.ChainSpec.homogeneous(n, epsilon=0.05)
            for blocks in (qc.build_hamiltonian_eigen(spec), whole(qc.build_hamiltonian_lab(spec))):
                assert len(blocks) == 1
                for g in (0.01, 0.05):
                    res = qc.steady_state(blocks, qc.RateSet((0.0,) * n, (0.0,) * n, (g,) * n))
                    assert res.converged
                    assert np.abs(res.state - np.eye(2**n) / 2**n).max() < 1e-12

    def test_iteration_cap_leaves_the_point_uncertified(self, monkeypatch):
        # Ten iterations leave a residual that tol certifies, but not GMRES's own 1e-12: flagged, not passed.
        from qubitchain import lindblad

        spec = qc.ChainSpec.homogeneous(3)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.05, 0.1))
        monkeypatch.setattr(lindblad, "_GMRES_MAX_ITERATIONS", 10)
        res = qc.steady_state(h, rates)
        assert res.residual < 1e-8 and not res.converged

    def test_uncertified_result_is_flagged(self):
        spec = qc.ChainSpec.homogeneous(3)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(1e-4, 0.0))
        tol = 0.0  # no residual certifies below zero
        res = qc.steady_state(h, rates, tol=tol)
        assert not res.converged
        assert res.residual >= tol


@pytest.mark.parametrize("epsilon", [0.0, 0.05], ids=["sector", "one_block"])
def test_dense_states_are_exactly_hermitian(rng, epsilon):
    # A dense noisy state is held as the real matrix R = A + B of rho = A + iB,
    # and density(R) is exactly Hermitian for any real R: for random stacks,
    # for every stream snapshot and for the steady states.  real_form and
    # density invert each other within a few ulps (R + R^T rounds, so not
    # bit for bit).
    def anti_hermitian(x):
        return float(np.abs(x - np.conj(np.swapaxes(x, -1, -2))).max())

    n = 5
    chain = qc.ChainSpec(n, epsilon, tuple(np.linspace(0.09, 0.12, n)), tuple(np.linspace(0.02, 0.03, n - 1)))
    h = qc.build_hamiltonian_eigen(chain)
    blocks = [b for b, _ in h]
    assert len(blocks) == (2 if epsilon == 0 else 1)
    rates = sector_rates(n)  # G, Gt and g all nonzero
    r = rng.standard_normal((len(blocks), len(blocks[0]), len(blocks[0])))
    assert anti_hermitian(density(r)) == 0.0
    rho = block_stack(random_density_matrix(rng, 2**n), blocks)
    ulps = 4 * np.finfo(float).eps
    assert np.abs(real_form(density(r)) - r).max() <= ulps * np.abs(r).max()
    assert np.abs(density(real_form(rho)) - rho).max() <= ulps * np.abs(rho).max()

    start = block_stack(random_block_diagonal(rng, blocks) + 1e-9j * rng.standard_normal((2**n, 2**n)), blocks)
    assert anti_hermitian(start) > 0.0
    for t, snapshot, _ in stream(start, h, rates, sample_grid(20.0, 0.5, 4)):
        assert anti_hermitian(density(snapshot)) == 0.0, t
    for noise in (qc.NoiseSpec(0.02, 0.0), qc.NoiseSpec(0.05, 0.3)):
        res = qc.steady_state(h, qc.rates_from_angles(qc.mixing_angles(chain), noise))
        assert res.converged and anti_hermitian(res.state) == 0.0


class TestSectors:
    """The generator on the parity sector against dense oracles and the one-block path."""

    def test_sector_generator_matches_kronecker_oracle(self, rng):
        for n in (3, 4, 5):
            chain = parity_chain(n)
            h = qc.build_hamiltonian_eigen(chain)
            rates = sector_rates(n)
            blocks = [b for b, _ in h]
            gen = LindbladGenerator(h, rates)
            full = kronecker_liouvillian(dense(h), rates)
            sector = sector_positions(blocks, 2**n)
            assert np.abs(gen.superoperator().toarray() - full[np.ix_(sector, sector)]).max() < 1e-14
            rho = random_block_diagonal(rng, blocks)
            want = full @ rho.ravel()
            assert np.abs(density(gen.apply(real_form(block_stack(rho, blocks)))).ravel() - want[sector]).max() < 1e-14
            # Weak parity symmetry: nothing leaks out of the sector (the
            # 1e-18 parity-odd entries of H are not built).
            outside = np.setdiff1d(np.arange(4**n), sector)
            assert np.abs(want[outside]).max() < 1e-16

    def test_steady_state_matches_kronecker_null_vector(self):
        # Oracle: the dense trace-bordered system (L + vec(I/d) vec(I)^T) x = vec(I/d), solved by LU.
        for n in (3, 4, 5):
            chain = parity_chain(n)
            h = qc.build_hamiltonian_eigen(chain)
            d = 2**n
            for rates in (sector_rates(n), qc.rates_from_angles(qc.mixing_angles(chain), qc.NoiseSpec(0.05, 0.1))):
                w = (np.eye(d) / d).ravel()
                bordered = kronecker_liouvillian(dense(h), rates) + np.outer(w, np.eye(d).ravel())
                want = np.linalg.solve(bordered, w).reshape(d, d)
                for blocks in (h, whole(dense(h))):
                    res = qc.steady_state(blocks, rates)
                    assert res.converged
                    assert np.abs(res.state - want).max() < 1e-12

    def test_complex_hamiltonian_refused(self, rng):
        # Every dense entry point takes real symmetric blocks only: the
        # noiseless propagation inverts each block's eigenvectors by v.T.
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = whole(0.01 * (g + g.conj().T))
        rates = sector_rates(3)
        psi = random_pure_state(rng, 8)
        rho = qc.density_from_pure(psi)
        entry_points = {
            "generator": lambda: LindbladGenerator(h, rates),
            "evolve": lambda: qc.evolve(rho, h, rates, t_max=0.1, dt=0.01),
            "steady_state": lambda: qc.steady_state(h, rates),
            "ground_state": lambda: qc.ground_state(h),
            "thermal_state": lambda: qc.thermal_state(h, 0.05),
            "propagate_noisy": lambda: next(propagate(psi, h, rates, 0.1, 0.01)),
            "propagate_vector": lambda: next(propagate(psi, h, qc.RateSet.zero(3), 0.1, 0.01)),
            "propagate_matrix": lambda: next(propagate(rho, h, qc.RateSet.zero(3), 0.1, 0.01)),
        }
        for name, call in entry_points.items():
            with pytest.raises(ValueError, match="must be real"):
                call()
                pytest.fail(f"{name} accepted a complex block")

    @pytest.mark.parametrize("start", ["product_eigen", "bell_head_eigen", "thermal_of_k_ini"])
    def test_two_block_rk4_matches_one_block(self, start):
        n = 5
        chain = parity_chain(n)
        h = qc.build_hamiltonian_eigen(chain)
        rates = qc.rates_from_angles(qc.mixing_angles(chain), qc.NoiseSpec(0.02, 0.2))
        blocks = [b for b, _ in h]
        if start == "thermal_of_k_ini":
            rho0 = qc.thermal_state(qc.build_hamiltonian_eigen(chain.with_coupling(0.01)), 0.05)
        else:
            psi = qc.eigenbasis_product(n) if start == "product_eigen" else qc.eigenbasis_bell_head(n)
            rho0 = qc.density_from_pure(psi)
        odd = blocks[1]
        assert (start == "bell_head_eigen") == (np.trace(rho0[np.ix_(odd, odd)]).real > 0.5)
        times = sample_grid(6.0, 0.05, 10)
        two = list(stream(block_stack(rho0, blocks), h, rates, times))
        one = list(stream(rho0[None], whole(dense(h)), rates, times))
        assert len(two) == 13  # every 0.5 to 6.0
        for (_, a, drift_a), (_, b, drift_b) in zip(two, one):
            assert np.abs(block_matrix(a, blocks) - b[0]).max() < 1e-12
            assert abs(drift_a - drift_b) < 1e-12

    def test_sector_steady_state_matches_one_block(self):
        for n in (3, 4, 5):
            chain = parity_chain(n)
            h = qc.build_hamiltonian_eigen(chain)
            for rates in (sector_rates(n), qc.rates_from_angles(qc.mixing_angles(chain), qc.NoiseSpec(0.01, 0.1))):
                sector = qc.steady_state(h, rates, tol=1e-9)
                one = qc.steady_state(whole(dense(h)), rates, tol=1e-9)
                assert sector.converged and one.converged
                assert np.abs(sector.state - one.state).max() < 1e-12
