import numpy as np
import pytest

import qubitchain as qc
from conftest import dense, mps_to_dense, whole
from qubitchain.lindblad import LindbladGenerator, density, real_form
from qubitchain.mps import (
    MixedTebdEngine,
    MpsMixedState,
    _dense_from_coefficients,
    _expm,
    _fourth_order_stages,
    _multiplet_cut,
    bond_generators,
    mps_from_product,
    mps_trace,
    reduced_pair_dm,
    reduced_sites_dm,
)

GROUND = np.diag([1.0, 0.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2


def product_state(n, local=GROUND):
    return mps_from_product([local] * n)


class TestStages:
    """The stage list of one fourth-order step, S2(c dt) S2((1 - 2c) dt) S2(c dt), with S2 = E/2 O E/2."""

    def test_family_time_steps_sum_to_dt(self):
        for dt in (0.05, 0.1, 0.4):
            stages = _fourth_order_stages(dt)
            for family in ("even", "odd"):
                assert abs(sum(tau for f, tau in stages if f == family) - dt) < 1e-12

    def test_adjacent_stages_of_one_family_are_merged(self):
        families = [f for f, _ in _fourth_order_stages(0.05)]
        assert all(a != b for a, b in zip(families, families[1:]))
        assert families == ["even", "odd"] * 3 + ["even"]

    def test_time_steps_match_reference(self):
        # Reference time steps of S4(0.05), compared bitwise so that MPS run
        # outputs stay byte-identical.  The middle sweep runs backwards in time.
        a, b = 0.03378017979899144, 0.06756035959798289
        c, d = -0.008780179798991445, -0.08512071919596578
        assert [tau for _, tau in _fourth_order_stages(0.05)] == [a, b, c, d, c, b, a]

    def test_rejects_nonpositive_dt(self):
        spec = qc.ChainSpec.homogeneous(4)
        for dt in (0.0, -0.05):
            with pytest.raises(ValueError):
                MixedTebdEngine(spec, qc.RateSet.zero(4), dt, bond_dim=16)


class TestExpm:
    """The numpy scaling-and-squaring exponential that builds the bond gates, against scipy's."""

    @staticmethod
    def close(a, ref):
        return np.abs(a - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_engine_gates_match_scipy(self):
        from scipy.linalg import expm

        # Disorder on every target detunes the sites, so every rate, dephasing included, is nonzero.
        dis = qc.DisorderSpec(0.3, ("epsilon", "delta", "coupling"), seed=5)
        spec = qc.sample_disorder(qc.ChainSpec.homogeneous(6, 0.02, 0.1, 0.025), dis)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.05, 0.2))
        assert min(rates.g_relax + rates.g_excite + rates.g_dephase) > 0
        dt = 0.1
        engine = MixedTebdEngine(spec, rates, dt, bond_dim=16)
        generators = bond_generators(spec, rates)
        stages = _fourth_order_stages(dt)
        sweeps = [(tau, gates) for (_, tau), (_, gates) in zip(stages, engine._stage_ops)]
        sweeps.append((stages[-1][1] + stages[0][1], engine._fused_even))
        assert sum(len(gates) for _, gates in sweeps) == 4 * 3 + 3 * 2 + 3
        for tau, gates in sweeps:
            for b, gate in gates.items():
                assert self.close(gate, expm(tau * generators[b])), (tau, b)

    def test_random_matrices_match_scipy(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(3)
        for norm in np.geomspace(1e-3, 50.0, 25):
            a = rng.standard_normal((16, 16))
            a *= norm / np.abs(a).sum(axis=0).max()
            assert self.close(_expm(a), expm(a)), norm

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((4, 16, 16)) * np.array([0.01, 1.0, 8.0, 40.0])[:, None, None]
        out = _expm(stack)
        for a, e in zip(stack, out):
            assert self.close(e, _expm(a))

    def test_zero_matrix_gives_identity_exactly(self):
        assert np.array_equal(_expm(np.zeros((16, 16))), np.eye(16))


class TestProductConstruction:
    def test_all_ground_tensor_coefficients(self):
        # Pauli coefficients tr(P rho)/sqrt2 for P = I, X, Y, Z.
        state = product_state(4)
        for t in state.tensors:
            assert np.allclose(t[0, :, 0], np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_maximally_mixed_coefficients(self):
        state = product_state(4, MIXED)
        for t in state.tensors:
            assert np.allclose(t[0, :, 0], [1 / np.sqrt(2), 0, 0, 0])

    def test_dense_reconstruction_matches_tensor_product(self, rng):
        locals_ = []
        for _ in range(4):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            locals_.append(rho / np.trace(rho).real)
        state = mps_from_product(locals_)
        dense = locals_[0]
        for rho in locals_[1:]:
            dense = np.kron(dense, rho)
        assert np.abs(mps_to_dense(state) - dense).max() < 1e-14

    def test_rejects_invalid_local_state(self):
        with pytest.raises(ValueError):
            mps_from_product([2.0 * np.eye(2, dtype=complex)] * 3)


class TestTrace:
    def test_fresh_product_has_unit_trace(self):
        assert mps_trace(product_state(5)) == pytest.approx(1.0)

    def test_scaling_is_linear(self):
        state = product_state(3)
        state.tensors[1] = 2.0 * state.tensors[1]
        assert mps_trace(state) == pytest.approx(2.0)


class TestReducedPair:
    def test_reduction_is_exactly_hermitian(self):
        spec = qc.ChainSpec.homogeneous(6)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.05))
        engine = MixedTebdEngine(spec, rates, 0.1, bond_dim=16)
        state = product_state(6)
        for _ in range(10):
            state = engine.step(state)
        for sites in ((1, 2), (3, 4), (2, 5), (1, 3, 6), (1, 2, 3, 4)):
            mat = reduced_sites_dm(state, sites).matrix
            assert np.array_equal(mat, mat.conj().T), sites

    def test_product_pair(self):
        state = product_state(5, MIXED)
        rs = reduced_pair_dm(state, 2, 4)
        assert np.abs(rs.matrix - np.eye(4) / 4).max() < 1e-14

    def test_agrees_with_dense_partial_trace(self):
        spec = qc.ChainSpec.homogeneous(4)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.05))
        engine = MixedTebdEngine(spec, rates, 0.05, bond_dim=64)
        state = product_state(4)
        for _ in range(40):
            state = engine.step(state)
        dense = mps_to_dense(state)
        for pair in ((1, 2), (2, 3), (1, 4)):
            rs = reduced_pair_dm(state, *pair)
            expected = qc.reduce(dense, pair).matrix
            assert np.abs(rs.matrix - expected).max() < 1e-8
            assert np.trace(rs.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestTebd:
    def test_uncoupled_noiseless_product_stays_bond_one(self):
        spec = qc.ChainSpec.homogeneous(4, 0.0, 0.1, 0.0)
        engine = MixedTebdEngine(spec, qc.RateSet.zero(4), 0.05, bond_dim=16)
        state = product_state(4, np.diag([0.7, 0.3]).astype(complex))
        for _ in range(30):
            state = engine.step(state)
        assert state.bond_dims() == (1, 1, 1)
        assert engine.truncation_weight < 1e-20

    def test_matches_dense_lindblad_oracle(self):
        spec = qc.ChainSpec.homogeneous(4)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        dense = qc.evolve(rho0, h, rates, t_max=10.0, dt=0.01, sample_every=1000).states[-1]
        engine = MixedTebdEngine(spec, rates, 0.05, bond_dim=64)
        state = product_state(4)
        for _ in range(200):
            state = engine.step(state)
        assert np.linalg.norm(mps_to_dense(state) - dense) < 1e-9

    def test_fourth_order_convergence_against_dense_oracle(self):
        spec = qc.ChainSpec.homogeneous(4)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.0))
        h = qc.build_hamiltonian_eigen(spec)
        rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
        ref = qc.evolve(rho0, h, rates, t_max=4.0, dt=0.002, sample_every=2000).states[-1]
        errors = {}
        for dt in (0.4, 0.2):
            engine = MixedTebdEngine(spec, rates, dt, bond_dim=64)
            state = product_state(4)
            for _ in range(int(round(4.0 / dt))):
                state = engine.step(state)
            errors[dt] = np.linalg.norm(mps_to_dense(state) - ref)
        ratio = errors[0.4] / errors[0.2]
        assert 8.0 < ratio < 32.0

    def test_long_truncated_run_keeps_trace(self):
        # 1000 truncated steps at production-grade bond dimension: the
        # monitored trace drift must stay below the flagging policy.
        spec = qc.ChainSpec.homogeneous(6)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.1))
        engine = MixedTebdEngine(spec, rates, 0.05, bond_dim=32)
        state = product_state(6)
        for _ in range(1000):
            state = engine.step(state)
        assert engine.truncation_weight > 0  # truncation actually happened
        assert engine.trace_drift_total < 1e-5
        assert mps_trace(state) == pytest.approx(1.0, abs=1e-12)

    def test_multi_site_reduction_matches_dense(self, rng):
        spec = qc.ChainSpec.homogeneous(5)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.1))
        engine = MixedTebdEngine(spec, rates, 0.05, bond_dim=64)
        state = product_state(5)
        for _ in range(100):
            state = engine.step(state)
        dense = mps_to_dense(state)
        for sites in ((1, 2, 3, 4), (1, 3, 5), (2, 4), (3,)):
            rs = reduced_sites_dm(state, sites)
            expected = qc.reduce(dense, sites).matrix
            assert np.abs(rs.matrix - expected).max() < 1e-10

    def test_tensors_and_stage_ops_are_real(self):
        spec = qc.ChainSpec.homogeneous(5)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.1))
        engine = MixedTebdEngine(spec, rates, 0.1, bond_dim=16)
        for _, ops in engine._stage_ops:
            for op in ops.values() if isinstance(ops, dict) else ops:
                assert op.dtype == np.float64
        state = product_state(5)
        for _ in range(5):
            state = engine.step(state)
        assert max(state.bond_dims()) > 1
        assert all(t.dtype == np.float64 for t in state.tensors)

    def test_truncation_weight_flagged_when_bond_starved(self):
        spec = qc.ChainSpec.homogeneous(6, 0.0, 0.1, 0.1)
        rates = qc.RateSet.zero(6)
        engine = MixedTebdEngine(spec, rates, 0.1, bond_dim=2)
        state = product_state(6)
        for _ in range(60):
            state = engine.step(state)
        assert engine.flagged_steps > 0
        assert engine.truncation_weight > 0

    def test_cap_keeps_whole_multiplets(self):
        # The first gate of the starved chain above gives singular values
        # (1, 0.003378, 0.003378, ...): a cap of 2 would split the equal
        # pair, so the bond keeps the first value alone.
        spec = qc.ChainSpec.homogeneous(6, 0.0, 0.1, 0.1)
        engine = MixedTebdEngine(spec, qc.RateSet.zero(6), 0.1, bond_dim=2)
        _, gates = engine._stage_ops[0]
        state = product_state(6)
        engine._apply_bond_gate(state, 0, gates[0])
        assert len(state.bond_weights[0]) == 1

    def test_svd_fallback_matches_the_default_driver(self, monkeypatch):
        # Bond 2 of a state whose neighbouring bonds are already entangled.
        spec = qc.ChainSpec.homogeneous(6)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.1))
        engine = MixedTebdEngine(spec, rates, 0.1, bond_dim=64)
        start = engine.step(product_state(6), 3)
        assert start.bond_dims()[1] > 1 and start.bond_dims()[2] > 1
        gate = engine._stage_ops[0][1][2]

        def bond_update(state):
            state = MpsMixedState(list(state.tensors), list(state.bond_weights))
            weight = engine._apply_bond_gate(state, 2, gate)
            return state, weight

        expected, expected_weight = bond_update(start)

        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        fallback, weight = bond_update(start)
        assert abs(weight - expected_weight) < 1e-12
        assert np.abs(fallback.bond_weights[2] - expected.bond_weights[2]).max() < 1e-12
        assert np.abs(mps_to_dense(fallback) - mps_to_dense(expected)).max() < 1e-12

    def test_multiplet_cut_moves_down_to_a_gap(self):
        s = np.array([1.0, 0.5, 0.5 - 1e-15, 0.2, 0.2, 0.1])
        assert [_multiplet_cut(s, cap) for cap in (1, 2, 3, 4, 5)] == [1, 1, 3, 3, 5]
        # The first value's multiplet reaches past the cap: the cap stays.
        assert _multiplet_cut(np.array([0.5, 0.5, 0.5, 0.1]), 2) == 2

    def test_step_leaves_its_input_unchanged(self):
        # Earlier MPS samples keep the states that later steps start from.
        spec = qc.ChainSpec.homogeneous(5)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.1))
        engine = MixedTebdEngine(spec, rates, 0.1, bond_dim=4)
        state = product_state(5)
        for _ in range(3):
            state = engine.step(state)
        before = state.tensors + state.bond_weights
        copies = [a.copy() for a in before]
        assert engine.step(state) is not state
        assert all(a is b for a, b in zip(state.tensors + state.bond_weights, before))
        assert all(np.array_equal(a, b) for a, b in zip(before, copies))


class TestSteps:
    """Bond gates carry the dissipators, and steps taken in one call share their boundary sweep."""

    @staticmethod
    def noisy_engine(n, dt, bond_dim):
        spec = qc.ChainSpec.homogeneous(n)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.01, 0.1))
        return MixedTebdEngine(spec, rates, dt, bond_dim)

    @staticmethod
    def gates(engine):
        return [g for _, gates in engine._stage_ops for g in gates.values()] + list(engine._fused_even.values())

    def test_multi_step_matches_single_steps(self):
        # D = 64 holds every bond of six sites, so the cap never binds.
        single, fused = self.noisy_engine(6, 0.05, 64), self.noisy_engine(6, 0.05, 64)
        state = product_state(6)
        for _ in range(10):
            state = single.step(state)
        multi = fused.step(product_state(6), 10)
        assert fused.step_count == single.step_count == 10
        assert np.abs(mps_to_dense(multi) - mps_to_dense(state)).max() < 1e-12
        fused.step(multi, 10)
        assert fused.step_count == 20

    def test_rejects_count_below_one(self):
        engine = self.noisy_engine(4, 0.05, 16)
        for count in (0, -1):
            with pytest.raises(ValueError):
                engine.step(product_state(4), count)

    def test_bond_gates_per_step_at_n40(self, monkeypatch):
        calls = []
        apply = MixedTebdEngine._apply_bond_gate

        def counted(self, state, b, gate):
            calls.append(b)
            return apply(self, state, b, gate)

        monkeypatch.setattr(MixedTebdEngine, "_apply_bond_gate", counted)
        engine = self.noisy_engine(40, 0.05, 8)
        state = engine.step(product_state(40))
        assert len(calls) == 4 * 20 + 3 * 19 == 137
        calls.clear()
        engine.step(state, 10)
        assert len(calls) == 31 * 20 + 30 * 19 == 1190

    def test_bond_gates_preserve_trace(self):
        # Detuned sites give every rate, dephasing included, a nonzero value.
        spec = qc.ChainSpec.homogeneous(5, 0.05, 0.1, 0.025)
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.1, 0.2))
        assert min(rates.g_relax + rates.g_excite + rates.g_dephase) > 0
        trace = np.kron([np.sqrt(2), 0, 0, 0], [np.sqrt(2), 0, 0, 0])
        for gate in self.gates(MixedTebdEngine(spec, rates, 0.4, 16)):
            assert np.abs(trace @ gate - trace).max() < 1e-14

    def test_noiseless_bond_gates_are_orthogonal(self):
        spec = qc.ChainSpec.homogeneous(5, 0.05, 0.1, 0.025)
        for gate in self.gates(MixedTebdEngine(spec, qc.RateSet.zero(5), 0.4, 16)):
            assert np.abs(gate @ gate.T - np.eye(16)).max() < 1e-14

    def test_bond_generators_sum_to_the_chain_generator(self):
        # Oracle: the dense master-equation right-hand side, applied to each
        # Pauli string and read back in the Pauli basis.
        spec = qc.ChainSpec(3, (0.05, 0.0, -0.1), (0.1, 0.12, 0.09), (0.02, 0.03))
        rates = qc.rates_from_angles(qc.mixing_angles(spec), qc.NoiseSpec(0.015, 0.2))
        gen = LindbladGenerator(whole(dense(qc.build_hamiltonian_eigen(spec))), rates)
        strings = [_dense_from_coefficients(e, 3) for e in np.eye(64)]
        expected = np.array([[np.vdot(p, density(gen.apply(real_form(q)))) for q in strings] for p in strings])
        first, second = bond_generators(spec, rates)
        total = np.kron(first, np.eye(4)) + np.kron(np.eye(4), second)
        assert first.dtype == second.dtype == np.float64
        assert np.abs(total - expected).max() < 1e-14
