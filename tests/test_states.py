import numpy as np
import pytest

import qubitchain as qc
from conftest import bell_head, dense, plus_product, random_density_matrix, whole


class TestProductStates:
    def test_plus_product_single(self):
        assert np.allclose(plus_product(1), [1 / np.sqrt(2)] * 2)

    def test_plus_product_amplitudes(self):
        psi = plus_product(3)
        assert np.allclose(psi, 1 / (2 * np.sqrt(2)))
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_plus_product_is_separable(self):
        rho = qc.density_from_pure(plus_product(4))
        for pair in ((1, 2), (1, 4), (2, 3)):
            assert qc.pair_log_negativity(rho, *pair) == 0.0

    def test_eigenbasis_product(self):
        psi = qc.eigenbasis_product(2)
        assert np.allclose(psi, [1, 0, 0, 0])


class TestBellHead:
    def test_two_site_amplitudes(self):
        assert np.allclose(bell_head(2), np.array([0, 1, 1, 0]) / np.sqrt(2))
        assert np.allclose(qc.eigenbasis_bell_head(2), np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_head_pair_is_maximally_entangled(self):
        rho = qc.density_from_pure(bell_head(2))
        assert qc.pair_log_negativity(rho, 1, 2) == pytest.approx(1.0, abs=1e-12)

    def test_tail_pair_is_separable(self):
        rho = qc.density_from_pure(bell_head(4))
        assert qc.pair_log_negativity(rho, 3, 4) == 0.0

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            bell_head(1)
        with pytest.raises(ValueError):
            qc.eigenbasis_bell_head(1)

    def test_eigen_bell_head_is_maximally_entangled(self):
        rho = qc.density_from_pure(qc.eigenbasis_bell_head(4))
        assert qc.pair_log_negativity(rho, 1, 2) == pytest.approx(1.0, abs=1e-12)
        assert qc.pair_log_negativity(rho, 3, 4) == 0.0


class TestGroundState:
    def test_uncoupled_lab_ground_is_plus_product(self):
        spec = qc.ChainSpec.homogeneous(4, 0.0, 0.1, 0.0)
        g = qc.ground_state(whole(qc.build_hamiltonian_lab(spec)))
        assert abs(np.vdot(plus_product(4), g.vector)) == pytest.approx(1.0, abs=1e-10)
        assert not g.degenerate

    def test_uncoupled_eigen_ground_is_zero_product(self):
        spec = qc.ChainSpec.homogeneous(4, 0.0, 0.1, 0.0)
        g = qc.ground_state(qc.build_hamiltonian_eigen(spec))
        assert abs(g.vector[0]) == pytest.approx(1.0, abs=1e-10)

    def test_matches_full_diagonalization_oracle(self):
        spec = qc.ChainSpec.homogeneous(2)  # K = delta/4
        h = qc.build_hamiltonian_lab(spec)
        g = qc.ground_state(whole(h))
        energies, vectors = np.linalg.eigh(h)
        assert g.energy == pytest.approx(energies[0])
        assert abs(np.vdot(vectors[:, 0], g.vector)) > 1 - 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qc.ground_state(whole(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_degeneracy_reported(self):
        g = qc.ground_state(whole(np.zeros((4, 4), dtype=complex)))
        assert g.degenerate

    def test_parity_blocks_give_a_parity_pure_ground_state(self):
        spec = qc.ChainSpec.homogeneous(6, coupling=0.001)
        h = qc.build_hamiltonian_eigen(spec)
        (even, _), (odd, _) = h
        full = qc.ground_state(whole(dense(h)))
        split = qc.ground_state(h)
        assert split.energy == pytest.approx(full.energy, abs=1e-14)
        assert split.gap == pytest.approx(full.gap, abs=1e-14)
        assert abs(np.vdot(full.vector, split.vector)) == pytest.approx(1.0, abs=1e-12)
        assert not split.vector[odd].any()


class TestThermalState:
    def test_low_temperature_limit_is_ground_state(self):
        spec = qc.ChainSpec.homogeneous(4)
        h = whole(qc.build_hamiltonian_lab(spec))
        rho = qc.thermal_state(h, 1e-6)
        g = qc.ground_state(h)
        assert qc.fidelity(g.vector, rho) > 1 - 1e-6

    def test_high_temperature_limit_is_maximally_mixed(self):
        spec = qc.ChainSpec.homogeneous(3)
        h = whole(qc.build_hamiltonian_lab(spec))
        rho = qc.thermal_state(h, 1e6)
        assert np.abs(rho - np.eye(8) / 8).max() < 1e-6

    def test_is_valid_density_matrix(self):
        spec = qc.ChainSpec.homogeneous(5)
        rho = qc.thermal_state(qc.build_hamiltonian_eigen(spec), 0.02)
        assert np.abs(rho - rho.conj().T).max() <= 1e-12 * np.abs(rho).max()
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho)[0] >= -1e-9

    def test_fidelity_with_ground_monotone_in_temperature(self):
        spec = qc.ChainSpec.homogeneous(6)
        h = whole(qc.build_hamiltonian_lab(spec))
        g = qc.ground_state(h)
        fids = [qc.fidelity(g.vector, qc.thermal_state(h, t)) for t in (0.005, 0.01, 0.02, 0.04, 0.08)]
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))

    def test_parity_blocks_match_full_and_leave_no_coherence(self):
        spec = qc.ChainSpec.homogeneous(6, coupling=0.01)
        h = qc.build_hamiltonian_eigen(spec)
        (even, _), (odd, _) = h
        for temperature in (0.01, 0.05, 1.0):
            full = qc.thermal_state(whole(dense(h)), temperature)
            split = qc.thermal_state(h, temperature)
            assert np.abs(split - full).max() < 1e-14
            assert not split[np.ix_(even, odd)].any() and not split[np.ix_(odd, even)].any()

    def test_rejects_nonpositive_temperature(self):
        spec = qc.ChainSpec.homogeneous(2)
        with pytest.raises(ValueError):
            qc.thermal_state(whole(qc.build_hamiltonian_lab(spec)), 0.0)


class TestFidelity:
    def test_projector_gives_one(self, rng):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        assert qc.fidelity(psi, qc.density_from_pure(psi)) == pytest.approx(1.0)

    def test_maximally_mixed_gives_inverse_dimension(self, rng):
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi /= np.linalg.norm(psi)
        assert qc.fidelity(psi, np.eye(16) / 16) == pytest.approx(1 / 16)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qc.fidelity(np.ones(4) / 2, np.eye(8) / 8)

    def test_ground_energy_is_variational_lower_bound(self, rng):
        spec = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_lab(spec)
        g = qc.ground_state(whole(h))
        for _ in range(5):
            rho = random_density_matrix(rng, 16)
            assert g.energy <= np.trace(h @ rho).real + 1e-12
        rho_t = qc.thermal_state(whole(h), 0.03)
        assert g.energy <= np.trace(h @ rho_t).real + 1e-12
