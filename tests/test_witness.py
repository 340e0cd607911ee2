import numpy as np
import pytest

import qubitchain as qc
from conftest import random_density_matrix
from qubitchain.negativity import ReducedState, log_negativity
from qubitchain.witness import asymmetry_flags, correlation_matrix_from_pair

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

BELL_PRIME = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def pair_state(rho):
    return ReducedState((1, 2), rho)


def swap_symmetrize(rho):
    return 0.5 * (rho + SWAP @ rho @ SWAP)


class TestCorrelation:
    def test_zero_product_state(self):
        rho = qc.density_from_pure(qc.eigenbasis_product(2))
        assert qc.correlation(rho, 1, 2, "z", "z") == pytest.approx(1.0)
        assert qc.correlation(rho, 1, 2, "x", "x") == pytest.approx(0.0, abs=1e-14)
        assert qc.correlation(rho, 1, 2, "y", "y") == pytest.approx(0.0, abs=1e-14)

    def test_bell_prime_diagonal(self):
        rho = qc.density_from_pure(BELL_PRIME)
        assert qc.correlation(rho, 1, 2, "x", "x") == pytest.approx(1.0)
        assert qc.correlation(rho, 1, 2, "y", "y") == pytest.approx(1.0)
        assert qc.correlation(rho, 1, 2, "z", "z") == pytest.approx(-1.0)

    def test_maximally_mixed_vanishes(self):
        rho = np.eye(4, dtype=complex) / 4
        for a in "xyz":
            for b in "xyz":
                assert qc.correlation(rho, 1, 2, a, b) == pytest.approx(0.0, abs=1e-14)

    def test_axis_validation(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            qc.correlation(rho, 1, 2, "w", "z")

    def test_matrix_from_larger_chain(self):
        rho = qc.density_from_pure(qc.eigenbasis_bell_head(4))
        x = qc.correlation_matrix(rho, 1, 2)
        assert np.allclose(np.diag(x.entries), [1.0, 1.0, -1.0])
        assert x.asymmetry < 1e-14


class TestBounds:
    def test_bell_saturates_all_bounds(self):
        x = qc.correlation_matrix(qc.density_from_pure(BELL_PRIME), 1, 2)
        assert qc.bound_c1(x) == pytest.approx(1.0, abs=1e-12)
        assert qc.bound_c2(x) == pytest.approx(1.0, abs=1e-12)
        opt = qc.bound_c2_optimized(x)
        assert opt.value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sorted(np.abs(opt.eigenvalues)), [1.0, 1.0, 1.0])

    def test_separable_product_gives_zero(self):
        rho = qc.density_from_pure(qc.eigenbasis_product(2))
        x = qc.correlation_matrix(rho, 1, 2)
        assert qc.bound_c1(x) == 0.0
        assert qc.bound_c2(x) == 0.0
        assert qc.bound_c2_optimized(x).value == 0.0

    def test_bounds_below_log_negativity_randomized(self, rng):
        for _ in range(500):
            rho = random_density_matrix(rng, 4, rank=int(rng.integers(1, 5)))
            en = log_negativity(pair_state(rho), (1,))
            x = correlation_matrix_from_pair(pair_state(rho))
            assert qc.bound_c1(x) <= en + 1e-9
            assert qc.bound_c2(x) <= en + 1e-9

    def test_optimized_bound_ordering_on_symmetric_states(self, rng):
        for _ in range(300):
            rho = swap_symmetrize(random_density_matrix(rng, 4, rank=int(rng.integers(1, 5))))
            x = correlation_matrix_from_pair(pair_state(rho))
            assert x.asymmetry < 1e-12
            en = log_negativity(pair_state(rho), (1,))
            c2 = qc.bound_c2(x)
            opt = qc.bound_c2_optimized(x)
            assert c2 <= opt.value + 1e-12
            assert opt.value <= en + 1e-9

    def test_optimized_equals_plain_for_diagonal_x(self):
        x = qc.CorrelationMatrix.from_entries(np.diag([0.4, -0.3, 0.2]))
        assert qc.bound_c2_optimized(x).value == pytest.approx(qc.bound_c2(x), abs=1e-14)

    def test_optimized_invariant_under_axis_rotation(self, rng):
        rho = swap_symmetrize(random_density_matrix(rng, 4))
        x = correlation_matrix_from_pair(pair_state(rho))
        base = qc.bound_c2_optimized(x)
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(a)
            rotated = qc.CorrelationMatrix.from_entries(q @ x.entries @ q.T)
            assert qc.bound_c2_optimized(rotated).value == pytest.approx(base.value, abs=1e-12)

    def test_optimal_axes_reproduce_bound_when_frozen(self, rng):
        rho = swap_symmetrize(random_density_matrix(rng, 4))
        x = correlation_matrix_from_pair(pair_state(rho))
        opt = qc.bound_c2_optimized(x)
        assert qc.frozen_axes_bound(x, opt.axes) == pytest.approx(opt.value, abs=1e-12)
        # any other frozen axes cannot beat the optimum
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(a)
            assert qc.frozen_axes_bound(x, q) <= opt.value + 1e-12

    def test_asymmetric_matrix_refused(self):
        entries = np.zeros((3, 3))
        entries[0, 1] = 0.3
        x = qc.CorrelationMatrix.from_entries(entries)
        with pytest.raises(ValueError, match="asymmetry"):
            qc.bound_c2_optimized(x)

    def test_mild_asymmetry_symmetrized_with_warning(self):
        entries = np.diag([0.5, 0.2, -0.4]).astype(float)
        entries[0, 1] = 1e-5
        x = qc.CorrelationMatrix.from_entries(entries)
        assert qc.bound_c2_optimized(x).value >= 0.0
        # The warning is one flag per pair and kind, however many samples.
        flags = asymmetry_flags((1, 2), [x.asymmetry, 0.0, x.asymmetry, 3e-4])
        assert flags == [
            "c2_opt symmetrized for pair (1, 2) at 2 of 4 samples (max asymmetry 1.00e-05)",
            "c2_opt skipped for pair (1, 2) at 1 of 4 samples (max asymmetry 3.00e-04)",
        ]


class TestCorrelationsCsv:
    def test_round_trip(self, tmp_path, rng):
        rho = swap_symmetrize(random_density_matrix(rng, 4))
        x = correlation_matrix_from_pair(pair_state(rho))
        path = tmp_path / "corr.csv"
        lines = ["i,j,a,b,value"]
        for r, a in enumerate("xyz"):
            for c, b in enumerate("xyz"):
                lines.append(f"3,7,{a},{b},{float(x.entries[r, c])!r}")
        path.write_text("\n".join(lines) + "\n")
        loaded = qc.load_correlations_csv(path)
        assert set(loaded) == {(3, 7)}
        assert np.abs(loaded[(3, 7)].entries - x.entries).max() < 1e-15
        assert qc.bound_c2(loaded[(3, 7)]) == pytest.approx(qc.bound_c2(x))

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,a,b,value\n1,2,x,x,0.5\n")
        with pytest.raises(ValueError, match="missing"):
            qc.load_correlations_csv(path)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("i,j,value\n1,2,0.5\n")
        with pytest.raises(ValueError, match="columns"):
            qc.load_correlations_csv(path)
