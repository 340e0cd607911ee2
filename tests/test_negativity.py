import numpy as np
import pytest

import qubitchain as qc
from conftest import (
    bell_head,
    kron_all,
    partial_trace,
    plus_product,
    random_density_matrix,
    random_pure_state,
    unitary_propagate,
)


def random_single_qubit_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestReduce:
    def test_product_state_reduces_to_local_projector(self):
        rho = qc.density_from_pure(qc.eigenbasis_product(5))
        rs = qc.reduce(rho, (2, 4))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rs.matrix - expected).max() < 1e-14

    def test_bell_head_pair_factors_out_tail(self):
        rho = qc.density_from_pure(bell_head(4))
        rs = qc.reduce(rho, (1, 2))
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert np.abs(rs.matrix - np.outer(bell, bell)).max() < 1e-14

    def test_partial_trace_consistency(self, rng):
        rho = random_density_matrix(rng, 2**4)
        direct = qc.reduce(rho, (1, 2))
        nested_rs = qc.reduce(rho, (1, 2, 3))
        nested = qc.reduce(nested_rs.matrix, (1, 2))
        assert np.abs(direct.matrix - nested.matrix).max() < 1e-13
        assert np.abs(direct.matrix - partial_trace(rho, (1, 2))).max() < 1e-15

    def test_statevector_reduction_matches_dense(self, rng):
        psi = random_pure_state(rng, 2**5)
        dense = partial_trace(qc.density_from_pure(psi), (2, 5))
        fast = qc.reduce_statevector(psi, (2, 5))
        assert np.abs(dense - fast.matrix).max() < 1e-13

    def test_leading_batch_axis_matches_per_state_reduction(self, rng):
        rhos = np.array([random_density_matrix(rng, 2**5) for _ in range(3)])
        psis = np.array([random_pure_state(rng, 2**5) for _ in range(3)])
        for sites in ((2, 5), (1, 3, 4)):
            stacked = qc.reduce(rhos, sites)
            assert stacked.matrix.shape == (3, 2 ** len(sites), 2 ** len(sites))
            for rho, got in zip(rhos, stacked.matrix):
                assert np.abs(got - qc.reduce(rho, sites).matrix).max() < 1e-15
                assert np.abs(got - partial_trace(rho, sites)).max() < 1e-15
            stacked = qc.reduce_statevector(psis, sites)
            for psi, got in zip(psis, stacked.matrix):
                assert np.abs(got - qc.reduce_statevector(psi, sites).matrix).max() < 1e-15
                assert np.abs(got - partial_trace(qc.density_from_pure(psi), sites)).max() < 1e-13

    def test_block_reduction_matches_dense(self, rng):
        from qubitchain.lindblad import block_matrix, block_stack

        spec = qc.ChainSpec.homogeneous(5)
        for blocks in ([b for b, _ in qc.build_hamiltonian_eigen(spec)], [np.arange(32)]):
            parts = np.array([block_stack(random_density_matrix(rng, 32), blocks) for _ in range(2)])
            for sites in ((3,), (2, 5), (1, 3, 4), (1, 2, 4, 5)):
                stacked = qc.negativity.reduce_blocks(parts, blocks, sites)
                assert stacked.sites == sites
                for part, got in zip(parts, stacked.matrix):
                    want = partial_trace(block_matrix(part, blocks), sites)
                    assert np.abs(got - want).max() < 1e-15

    def test_cached_tables_match_a_cold_cache(self, rng):
        from qubitchain.lindblad import block_stack
        from qubitchain.negativity import _gather_tables, reduce_blocks

        spec = qc.ChainSpec.homogeneous(6)
        cases = [
            (blocks, sites)
            for blocks in ([b for b, _ in qc.build_hamiltonian_eigen(spec)], [np.arange(64)])
            for sites in ((1, 2), (3, 6), (2,), (1, 3, 4, 6))
        ]
        parts = {len(blocks): block_stack(random_density_matrix(rng, 64), blocks)[None] for blocks, _ in cases}
        cold = []
        for blocks, sites in cases:
            _gather_tables.cache_clear()
            cold.append(reduce_blocks(parts[len(blocks)], blocks, sites).matrix)
        for blocks, sites in cases:
            reduce_blocks(parts[len(blocks)], blocks, sites)
        hits = _gather_tables.cache_info().hits
        for (blocks, sites), want in zip(cases, cold):
            # Equal copies of the blocks hit the tables cached for the originals.
            got = reduce_blocks(parts[len(blocks)], [b.copy() for b in blocks], sites).matrix
            assert got.tobytes() == want.tobytes()
        assert _gather_tables.cache_info().hits == hits + len(cases)
        key = tuple(np.asarray(b, dtype=np.intp).tobytes() for b in cases[0][0])
        for flat, mask in _gather_tables(key, cases[0][1], 6):
            assert not flat.flags.writeable and not mask.flags.writeable

    def test_validates_sites(self):
        rho = np.eye(8) / 8
        with pytest.raises(ValueError):
            qc.reduce(rho, (1, 1))
        with pytest.raises(ValueError):
            qc.reduce(rho, (0, 2))
        with pytest.raises(ValueError):
            qc.reduce(rho, (1, 2, 3, 4, 5))
        for bad in (np.eye(6) / 6, np.ones((8, 4)) / 8, np.ones(8) / 8):
            with pytest.raises(ValueError):
                qc.reduce(bad, (1,))


class TestPartialTranspose:
    def test_product_state_stays_positive(self, rng):
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        rs = qc.ReducedState((1, 2), np.kron(rho_a, rho_b))
        pt = qc.partial_transpose(rs, (1,))
        assert np.abs(pt - np.kron(rho_a.T, rho_b)).max() < 1e-14
        assert np.linalg.eigvalsh(pt)[0] > -1e-14

    def test_bell_eigenvalues(self):
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        rs = qc.ReducedState((1, 2), np.outer(bell, bell))
        eigs = np.sort(np.linalg.eigvalsh(qc.partial_transpose(rs, (1,))))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5])

    def test_double_application_is_identity(self, rng):
        rs = qc.ReducedState((1, 2, 3), random_density_matrix(rng, 8))
        once = qc.partial_transpose(rs, (2,))
        twice = qc.partial_transpose(qc.ReducedState((1, 2, 3), once), (2,))
        assert np.abs(twice - rs.matrix).max() < 1e-14

    def test_rejects_improper_subsets(self, rng):
        rs = qc.ReducedState((1, 2), random_density_matrix(rng, 4))
        with pytest.raises(ValueError):
            qc.partial_transpose(rs, ())
        with pytest.raises(ValueError):
            qc.partial_transpose(rs, (1, 2))
        with pytest.raises(ValueError):
            qc.partial_transpose(rs, (3,))


class TestLogNegativity:
    def test_bell_state_is_one(self):
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        rs = qc.ReducedState((1, 2), np.outer(bell, bell))
        assert qc.log_negativity(rs, (1,)) == pytest.approx(1.0, abs=1e-12)

    def test_product_states_are_zero(self, rng):
        for _ in range(20):
            rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
            rs = qc.ReducedState((1, 2), rho)
            assert qc.log_negativity(rs, (1,)) == 0.0

    def test_mixtures_of_products_are_zero(self, rng):
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(6):
            rho += np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        rho /= np.trace(rho).real
        rs = qc.ReducedState((1, 2), rho)
        assert qc.log_negativity(rs, (1,)) == 0.0

    def test_werner_mixture_at_half(self):
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        rho = 0.5 * np.outer(bell, bell) + 0.5 * np.eye(4) / 4
        rs = qc.ReducedState((1, 2), rho)
        assert qc.log_negativity(rs, (1,)) == pytest.approx(np.log2(1.25), abs=1e-12)

    def test_invariant_under_local_unitaries(self, rng):
        rho = random_density_matrix(rng, 4)
        rs = qc.ReducedState((1, 2), rho)
        base = qc.log_negativity(rs, (1,))
        for _ in range(5):
            u = kron_all([random_single_qubit_unitary(rng), random_single_qubit_unitary(rng)])
            rotated = qc.ReducedState((1, 2), u @ rho @ u.conj().T)
            assert qc.log_negativity(rotated, (1,)) == pytest.approx(base, abs=1e-9)

    def test_stacked_equals_per_matrix_loop(self, rng):
        # Werner states p |Bell><Bell| + (1 - p) I/4 with p > 1/3 have
        # trace norm (1 + 3p)/2: p = 1/3 + 2e-11 lies inside the separable
        # window (trace norm 1 + 3e-11), p = 1/3 + 1e-9 just above it.
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        werner = {p: p * np.outer(bell, bell) + (1 - p) * np.eye(4) / 4 for p in (1 / 3 + 2e-11, 1 / 3 + 1e-9, 0.5)}
        product = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        randoms = [random_density_matrix(rng, 4, rank=r) for r in (1, 2, 4)]
        stack = np.array([np.outer(bell, bell), product, *werner.values(), *randoms])
        stacked = qc.log_negativity(qc.ReducedState((1, 2), stack), (1,))
        looped = [qc.log_negativity(qc.ReducedState((1, 2), m), (1,)) for m in stack]
        assert stacked.shape == (len(stack),)
        assert np.array_equal(stacked, looped)
        expected = [1.0, 0.0] + [0.0 if p < 1 / 3 + 1e-10 else np.log2((1 + 3 * p) / 2) for p in werner]
        assert np.abs(stacked[:5] - expected).max() < 1e-14
        assert stacked[3] > 0.0

    def test_stacked_block_cut_equals_per_matrix_loop(self, rng):
        stack = np.array([random_density_matrix(rng, 16, rank=r) for r in (1, 2, 16)])
        rs = qc.ReducedState((1, 2, 5, 6), stack)
        looped = [qc.log_negativity(qc.ReducedState(rs.sites, m), (1, 2)) for m in stack]
        assert np.array_equal(qc.log_negativity(rs, (1, 2)), looped)

    def test_trace_norm_matches_singular_values(self, rng):
        rho = random_density_matrix(rng, 4)
        pt = qc.partial_transpose(qc.ReducedState((1, 2), rho), (1,))
        from qubitchain.negativity import trace_norm_hermitian

        assert trace_norm_hermitian(pt) == pytest.approx(np.linalg.svd(pt, compute_uv=False).sum(), abs=1e-12)


def block_log_negativity(rho, a, b):
    """E_N across the (a | b) cut of two two-site blocks, as the harness measures it."""
    return qc.log_negativity(qc.reduce(rho, a + b), a)


class TestBlockLogNegativity:
    def test_global_product_gives_zero(self):
        rho = qc.density_from_pure(plus_product(4))
        assert block_log_negativity(rho, (1, 2), (3, 4)) == 0.0

    def test_bell_pair_across_cut_gives_one(self):
        # |0> x |bell on (2,3)> x |0>: exactly one ebit crosses the (12|34) cut.
        bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
        psi = np.kron(np.kron([1, 0], bell), [1, 0]).astype(complex)
        rho = qc.density_from_pure(psi)
        assert block_log_negativity(rho, (1, 2), (3, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_block_at_least_pair_during_generation(self):
        # Two-site blocks spanning the same gap carry at least as much
        # entanglement as the single pair across it.
        spec = qc.ChainSpec.homogeneous(8)
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = qc.density_from_pure(qc.eigenbasis_product(8))
        rho = unitary_propagate(rho0, h, 15.0)
        block = block_log_negativity(rho, (1, 2), (3, 4))
        pair = qc.pair_log_negativity(rho, 2, 3)
        assert block >= pair - 1e-9


class TestSymmetricPairs:
    def test_mirror_pairs_match_along_noisy_trajectory(self):
        spec = qc.ChainSpec.homogeneous(8)
        h = qc.build_hamiltonian_eigen(spec)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.05))
        rho0 = qc.density_from_pure(qc.eigenbasis_product(8))
        traj = qc.evolve(rho0, h, rates, t_max=20.0, dt=0.05, sample_every=80)
        for rho in traj.states:
            assert abs(qc.pair_log_negativity(rho, 1, 2) - qc.pair_log_negativity(rho, 7, 8)) < 1e-9
            assert abs(qc.pair_log_negativity(rho, 2, 3) - qc.pair_log_negativity(rho, 6, 7)) < 1e-9
