import numpy as np
import pytest

import qubitchain as qc
from conftest import dense, kron_all, plus_product, site_operator
from qubitchain.chain import DENSE_SITE_LIMIT, require_real_symmetric
from qubitchain.pauli import SX, SZ, z_pattern


def kron_hamiltonian_lab(spec):
    """Independent oracle: lab Hamiltonian assembled from explicit Kronecker products."""
    n = spec.n_qubits
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(1, n + 1):
        h += -0.5 * spec.epsilon[i - 1] * site_operator(SZ, i, n)
        h += -0.5 * spec.delta[i - 1] * site_operator(SX, i, n)
    for i in range(1, n):
        h += -0.5 * spec.coupling[i - 1] * site_operator(SZ, i, n) @ site_operator(SZ, i + 1, n)
    return h


def kron_hamiltonian_eigen(spec):
    """Independent oracle: eigenbasis-frame Hamiltonian from explicit Kronecker
    products, the cos(theta_i) terms included."""
    n = spec.n_qubits
    angles = qc.mixing_angles(spec)
    h = np.zeros((2**n, 2**n), dtype=complex)
    rotated = [
        np.cos(t) * site_operator(SZ, i, n) + np.sin(t) * site_operator(SX, i, n)
        for i, t in enumerate(angles.theta, start=1)
    ]
    for i in range(1, n + 1):
        h += -0.5 * angles.omega[i - 1] * site_operator(SZ, i, n)
    for i in range(1, n):
        h += -0.5 * spec.coupling[i - 1] * rotated[i - 1] @ rotated[i]
    return h


def frame_rotation(angles):
    """Oracle: unitary mapping eigenbasis amplitudes to lab-frame amplitudes.

    Column s of the per-site factor is the lab-frame representation of the
    eigenbasis state |s>, built from theta_i.
    """
    out = np.eye(1)
    for t in angles.theta:
        c2, s2 = np.cos(t / 2.0), np.sin(t / 2.0)
        out = np.kron(out, np.array([[c2, -s2], [s2, c2]]))
    return out


class TestMixingAngles:
    def test_degeneracy_point_is_pi_half(self):
        angles = qc.mixing_angles(qc.ChainSpec(1, (0.0,), (0.1,), ()))
        assert angles.theta[0] == pytest.approx(np.pi / 2)
        assert angles.omega[0] == pytest.approx(0.1)

    def test_equal_bias_and_splitting(self):
        angles = qc.mixing_angles(qc.ChainSpec(1, (0.1,), (0.1,), ()))
        assert angles.theta[0] == pytest.approx(np.pi / 4)
        assert angles.omega[0] == pytest.approx(0.1 * np.sqrt(2))

    def test_negative_bias_quadrant(self):
        angles = qc.mixing_angles(qc.ChainSpec(1, (-0.1,), (0.1,), ()))
        assert angles.theta[0] == pytest.approx(3 * np.pi / 4)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            qc.ChainSpec(2, (0.0, 0.0), (0.1, 0.0), (0.025,))


class TestHamiltonianLab:
    def test_single_site_bias_only(self):
        spec = qc.ChainSpec(1, (1.0,), (1e-12,), ())
        h = qc.build_hamiltonian_lab(spec)
        assert np.allclose(np.diag(h), [-0.5, 0.5])

    def test_two_site_ground_energy_matches_kron_oracle(self):
        spec = qc.ChainSpec.homogeneous(2)
        h = qc.build_hamiltonian_lab(spec)
        oracle = kron_hamiltonian_lab(spec)
        assert np.abs(h - oracle).max() < 1e-14
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(np.linalg.eigvalsh(oracle)[0])

    def test_hermitian_for_random_spec(self, rng):
        spec = qc.ChainSpec(
            5,
            tuple(rng.uniform(-0.2, 0.2, 5)),
            tuple(rng.uniform(0.05, 0.2, 5)),
            tuple(rng.uniform(-0.05, 0.05, 4)),
        )
        h = qc.build_hamiltonian_lab(spec)
        assert np.abs(h - h.conj().T).max() < 1e-12 * np.abs(h).max()
        assert np.abs(h - kron_hamiltonian_lab(spec)).max() < 1e-13

    def test_dimension_guard(self):
        spec = qc.ChainSpec.homogeneous(DENSE_SITE_LIMIT + 1)
        with pytest.raises(ValueError, match="MPS"):
            qc.build_hamiltonian_lab(spec)


class TestHamiltonianEigen:
    def test_blocks_are_exactly_symmetric(self):
        # The generator multiplies rho H as (H rho^T)^T with H itself, which
        # needs every block exactly symmetric: the builders' blocks are, and
        # pass uncopied; roundoff asymmetry is symmetrized, more is refused.
        spec = qc.sample_disorder(qc.ChainSpec.homogeneous(6), qc.DisorderSpec(0.05, ("delta", "coupling"), 3))
        for spec in (spec, qc.ChainSpec.homogeneous(5, epsilon=0.05)):
            for _, block in qc.build_hamiltonian_eigen(spec):
                assert require_real_symmetric(block) is block
        skewed = block.copy()
        skewed[0, 1] += 1e-14 * np.abs(block).max()
        sym = require_real_symmetric(skewed)
        assert np.array_equal(sym, sym.T) and np.abs(sym - block).max() <= 1e-14 * np.abs(block).max()
        skewed[0, 1] += 1e-9
        with pytest.raises(ValueError, match="not symmetric"):
            require_real_symmetric(skewed)

    def test_cached_basis_tables_match_a_cold_cache(self):
        # Each spec is built cold, then warm after builds of other specs
        # (other parameters, the other parity) have filled the cache.
        from qubitchain.chain import _eigen_basis

        dis = qc.DisorderSpec(0.2, ("epsilon", "delta", "coupling"), 7)
        specs = [
            spec
            for n in range(2, 9)
            for spec in (qc.ChainSpec.homogeneous(n), qc.sample_disorder(qc.ChainSpec.homogeneous(n), dis))
        ]
        assert all(not any(s.epsilon) for s in specs[::2]) and all(all(s.epsilon) for s in specs[1::2])
        cold = []
        for spec in specs:
            _eigen_basis.cache_clear()
            cold.append(qc.build_hamiltonian_eigen(spec))
        for spec, want in zip(specs[::-1], cold[::-1]):
            got = qc.build_hamiltonian_eigen(spec)
            assert len(got) == len(want)
            for (b, h), (b0, h0) in zip(got, want):
                assert np.array_equal(b, b0) and h.tobytes() == h0.tobytes()
                assert not b.flags.writeable
        assert _eigen_basis.cache_info().hits > 0

    def test_degeneracy_point_structure(self):
        # At eps=0 the rotated coupling is purely transverse: H' has no
        # sigma_z sigma_z part, so its diagonal is the field term alone.
        spec = qc.ChainSpec.homogeneous(4)
        angles = qc.mixing_angles(spec)
        field = sum(-0.5 * angles.omega[i - 1] * z_pattern(i, 4) for i in range(1, 5))
        xx = sum(
            -0.5 * spec.coupling[b] * site_operator(SX, b + 1, 4) @ site_operator(SX, b + 2, 4)
            for b in range(3)
        )
        full = kron_hamiltonian_eigen(spec)
        assert np.abs(full - (np.diag(field) + xx)).max() < 1e-13
        for b, block in qc.build_hamiltonian_eigen(spec):
            assert np.abs(np.diag(block) - field[b]).max() < 1e-14
            assert np.abs(block - full[np.ix_(b, b)]).max() < 1e-13

    def test_real_and_parity_block_diagonal_at_degeneracy(self):
        spec = qc.ChainSpec(5, 0.0, (0.1, 0.12, 0.09, 0.1, 0.11), (0.02, 0.03, 0.025, 0.02))
        (even, h_even), (odd, h_odd) = qc.build_hamiltonian_eigen(spec)
        assert h_even.dtype == h_odd.dtype == qc.build_hamiltonian_lab(spec).dtype == np.float64
        popcount = np.array([bin(j).count("1") for j in range(32)])
        assert np.array_equal(even, np.flatnonzero(popcount % 2 == 0))
        assert np.array_equal(odd, np.flatnonzero(popcount % 2 == 1))
        full = kron_hamiltonian_eigen(spec)
        for b, block in ((even, h_even), (odd, h_odd)):
            assert np.abs(block - full[np.ix_(b, b)]).max() < 1e-13
        # Only the cos(pi/2) = 6e-17 terms couple the sectors; no block holds them.
        assert 0 < np.abs(full[np.ix_(even, odd)]).max() < 1e-17
        biased = qc.ChainSpec(5, (0.0, 0.0, 1e-3, 0.0, 0.0), 0.1, 0.025)
        ((whole, block),) = qc.build_hamiltonian_eigen(biased)
        assert np.array_equal(whole, np.arange(32))
        assert np.abs(block - kron_hamiltonian_eigen(biased)).max() < 1e-13

    def test_spectra_agree_between_frames(self, rng):
        for _ in range(3):
            spec = qc.ChainSpec(
                4,
                tuple(rng.uniform(-0.3, 0.3, 4)),
                tuple(rng.uniform(0.05, 0.3, 4)),
                tuple(rng.uniform(-0.1, 0.1, 3)),
            )
            lab = np.linalg.eigvalsh(qc.build_hamiltonian_lab(spec))
            eig = np.linalg.eigvalsh(dense(qc.build_hamiltonian_eigen(spec)))
            assert np.abs(lab - eig).max() < 1e-10 * max(1.0, np.abs(lab).max())

    def test_uncoupled_spectrum_is_field_combinations(self):
        spec = qc.ChainSpec(3, (0.1, 0.0, -0.2), (0.1, 0.3, 0.2), (0.0, 0.0))
        angles = qc.mixing_angles(spec)
        h = dense(qc.build_hamiltonian_eigen(spec))
        expected = sorted(
            -0.5 * (s0 * angles.omega[0] + s1 * angles.omega[1] + s2 * angles.omega[2])
            for s0 in (1, -1)
            for s1 in (1, -1)
            for s2 in (1, -1)
        )
        assert np.allclose(np.linalg.eigvalsh(h), expected)


class TestFrameRotation:
    def test_maps_eigen_product_to_plus_product_at_degeneracy(self):
        spec = qc.ChainSpec.homogeneous(3)
        u = frame_rotation(qc.mixing_angles(spec))
        lab = u @ qc.eigenbasis_product(3)
        assert np.abs(lab - plus_product(3)).max() < 1e-14

    def test_conjugates_eigen_hamiltonian_onto_lab(self):
        # Bias-free chains share one sign convention between the frames, so
        # the rotation maps H' onto H exactly.
        spec = qc.ChainSpec.homogeneous(4)
        u = frame_rotation(qc.mixing_angles(spec))
        h_lab = qc.build_hamiltonian_lab(spec)
        h_eig = dense(qc.build_hamiltonian_eigen(spec))
        assert np.abs(u @ h_eig @ u.conj().T - h_lab).max() < 1e-13


class TestSampleDisorder:
    def test_zero_disorder_is_identity(self):
        spec = qc.ChainSpec.homogeneous(4)
        out = qc.sample_disorder(spec, qc.DisorderSpec(0.0, frozenset({"delta", "coupling"}), 1))
        assert out == spec

    def test_draws_stay_in_interval_and_respect_targets(self):
        spec = qc.ChainSpec.homogeneous(6, epsilon=0.05)
        dis = qc.DisorderSpec(0.05, frozenset({"delta", "coupling"}), 42)
        out = qc.sample_disorder(spec, dis)
        assert out.epsilon == spec.epsilon
        for v, ref in zip(out.delta, spec.delta):
            assert (1 - 0.05) * ref <= v <= (1 + 0.05) * ref
        for v, ref in zip(out.coupling, spec.coupling):
            assert (1 - 0.05) * ref <= v <= (1 + 0.05) * ref
        assert out.delta != spec.delta

    def test_same_seed_reproduces(self):
        spec = qc.ChainSpec.homogeneous(5)
        dis = qc.DisorderSpec(0.1, frozenset({"epsilon", "delta", "coupling"}), 7)
        assert qc.sample_disorder(spec, dis) == qc.sample_disorder(spec, dis)

    def test_epsilon_at_degeneracy_gets_additive_window(self):
        spec = qc.ChainSpec.homogeneous(4)  # epsilon = 0
        dis = qc.DisorderSpec(0.05, frozenset({"epsilon"}), 3)
        out = qc.sample_disorder(spec, dis)
        assert any(e != 0 for e in out.epsilon)
        for e, d in zip(out.epsilon, spec.delta):
            assert abs(e) <= 0.05 * d

    def test_empirical_mean_within_one_percent(self):
        spec = qc.ChainSpec(2, (0.0, 0.0), (0.1, 0.1), (0.025,))
        total = 0.0
        for seed in range(10_000):
            out = qc.sample_disorder(spec, qc.DisorderSpec(0.1, frozenset({"coupling"}), seed))
            total += out.coupling[0]
            assert 0.9 * 0.025 <= out.coupling[0] <= 1.1 * 0.025
        assert abs(total / 10_000 - 0.025) < 0.01 * 0.025

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            qc.DisorderSpec(1.0, frozenset({"delta"}), 0)
        with pytest.raises(ValueError):
            qc.DisorderSpec(0.1, frozenset({"nope"}), 0)


class TestQuenchSpec:
    def test_negative_initial_coupling_rejected(self):
        with pytest.raises(ValueError):
            qc.QuenchSpec(-0.1, 0.025)

    def test_holds_values(self):
        q = qc.QuenchSpec(0.0, 0.025)
        assert q.k_ini == 0.0 and q.k_fin == 0.025
