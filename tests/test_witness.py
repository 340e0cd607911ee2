import math

import numpy as np
import pytest

import qubitchain as qc
from conftest import random_density_matrix
from qubitchain.negativity import ReducedState, log_negativity
from qubitchain.pauli import SX, SY, SZ
from qubitchain.witness import AXES, _PAIR_PAULI, asymmetry, asymmetry_flags, c2_opt_value, correlation_matrix_from_pair

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

BELL_PRIME = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def pair_state(rho):
    return ReducedState((1, 2), rho)


def swap_symmetrize(rho):
    return 0.5 * (rho + SWAP @ rho @ SWAP)


def write_csv(tmp_path, rows, pair=None):
    """Correlation CSV of `rows`, after all nine cells of `pair` (each 0.1) if given."""
    lines = ["i,j,a,b,value"]
    if pair is not None:
        lines += [f"{pair[0]},{pair[1]},{a},{b},0.1" for a in "xyz" for b in "xyz"]
    path = tmp_path / "corr.csv"
    path.write_text("\n".join(lines + rows) + "\n")
    return path


class TestCorrelation:
    def test_zero_product_state(self):
        x = qc.correlation_matrix(qc.density_from_pure(qc.eigenbasis_product(2)), 1, 2)
        assert x[2, 2] == pytest.approx(1.0)
        assert x[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert x[1, 1] == pytest.approx(0.0, abs=1e-14)

    def test_bell_prime_diagonal(self):
        x = qc.correlation_matrix(qc.density_from_pure(BELL_PRIME), 1, 2)
        assert x[0, 0] == pytest.approx(1.0)
        assert x[1, 1] == pytest.approx(1.0)
        assert x[2, 2] == pytest.approx(-1.0)

    def test_maximally_mixed_vanishes(self):
        x = qc.correlation_matrix(np.eye(4, dtype=complex) / 4, 1, 2)
        assert np.abs(x).max() == pytest.approx(0.0, abs=1e-14)

    def test_axis_validation(self, tmp_path):
        # Axis names enter only through measured data.
        path = write_csv(tmp_path, ["1,2,w,z,0.5"])
        with pytest.raises(ValueError, match="unknown axis"):
            qc.load_correlations_csv(path)

    def test_pair_table_is_the_kronecker_table(self):
        by_axis = {"x": SX, "y": SY, "z": SZ}
        kron_table = np.array([[np.kron(by_axis[a], by_axis[b]) for b in AXES] for a in AXES])
        assert _PAIR_PAULI.shape == kron_table.shape
        assert _PAIR_PAULI.tobytes() == kron_table.tobytes()

    def test_matrix_from_larger_chain(self):
        rho = qc.density_from_pure(qc.eigenbasis_bell_head(4))
        x = qc.correlation_matrix(rho, 1, 2)
        assert np.allclose(np.diag(x), [1.0, 1.0, -1.0])
        assert asymmetry(x) < 1e-14


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
            assert asymmetry(x) < 1e-12
            en = log_negativity(pair_state(rho), (1,))
            c2 = qc.bound_c2(x)
            opt = qc.bound_c2_optimized(x)
            assert c2 <= opt.value + 1e-12
            assert opt.value <= en + 1e-9

    def test_optimized_equals_plain_for_diagonal_x(self):
        x = np.diag([0.4, -0.3, 0.2])
        assert qc.bound_c2_optimized(x).value == pytest.approx(qc.bound_c2(x), abs=1e-14)

    def test_optimized_invariant_under_axis_rotation(self, rng):
        rho = swap_symmetrize(random_density_matrix(rng, 4))
        x = correlation_matrix_from_pair(pair_state(rho))
        base = qc.bound_c2_optimized(x)
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(a)
            rotated = q @ x @ q.T
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
        # The asymmetry is read from the entries themselves: nothing stored
        # beside them can let an asymmetric X through.
        entries = np.zeros((3, 3))
        entries[0, 1] = 0.3
        with pytest.raises(ValueError, match="asymmetry 3.000e-01"):
            qc.bound_c2_optimized(entries)
        assert math.isnan(c2_opt_value(entries))
        diagonal = np.diag([0.5, 0.4, -0.3])
        values = c2_opt_value(np.stack([entries, diagonal]))
        assert math.isnan(values[0])
        assert values[1] == pytest.approx(qc.bound_c2(diagonal), abs=1e-14)

    def test_mild_asymmetry_symmetrized_with_warning(self):
        entries = np.diag([0.5, 0.2, -0.4]).astype(float)
        entries[0, 1] = 1e-5
        assert qc.bound_c2_optimized(entries).value >= 0.0
        # The warning is one flag per pair and kind, however many samples.
        flags = asymmetry_flags((1, 2), [asymmetry(entries), 0.0, asymmetry(entries), 3e-4])
        assert flags == [
            "c2_opt symmetrized for pair (1, 2) at 2 of 4 samples (max asymmetry 1.00e-05)",
            "c2_opt skipped for pair (1, 2) at 1 of 4 samples (max asymmetry 3.00e-04)",
        ]


class TestStacks:
    def test_stack_gives_each_matrix_value_bitwise(self, rng):
        rhos = [random_density_matrix(rng, 4, rank=int(rng.integers(1, 5))) for _ in range(40)]
        rhos[::2] = [swap_symmetrize(rho) for rho in rhos[::2]]
        xs = correlation_matrix_from_pair(pair_state(np.stack(rhos)))
        assert xs.shape == (40, 3, 3)
        singles = [correlation_matrix_from_pair(pair_state(rho)) for rho in rhos]
        np.testing.assert_array_equal(xs, np.stack(singles))
        axes = qc.bound_c2_optimized(singles[0]).axes
        bounds = {
            "c1": qc.bound_c1,
            "c2": qc.bound_c2,
            "c2_opt": c2_opt_value,
            "frozen": lambda x: qc.frozen_axes_bound(x, axes),
            "asymmetry": asymmetry,
        }
        for name, bound in bounds.items():
            per_matrix = [bound(x) for x in singles]
            assert all(isinstance(v, float) for v in per_matrix), name
            np.testing.assert_array_equal(bound(xs), per_matrix, err_msg=name)
        # C2' is defined on the symmetrized half and equals the one-matrix bound there.
        assert not np.isnan(c2_opt_value(xs[::2])).any()
        assert [qc.bound_c2_optimized(x).value for x in singles[::2]] == list(c2_opt_value(xs[::2]))


class TestCorrelationsCsv:
    def test_round_trip(self, tmp_path, rng):
        rho = swap_symmetrize(random_density_matrix(rng, 4))
        x = correlation_matrix_from_pair(pair_state(rho))
        path = tmp_path / "corr.csv"
        lines = ["i,j,a,b,value"]
        for r, a in enumerate("xyz"):
            for c, b in enumerate("xyz"):
                lines.append(f"3,7,{a},{b},{float(x[r, c])!r}")
        path.write_text("\n".join(lines) + "\n")
        loaded = qc.load_correlations_csv(path)
        assert set(loaded) == {(3, 7)}
        assert np.abs(loaded[(3, 7)] - x).max() < 1e-15
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

    @pytest.mark.parametrize("value, match", [("nan", "finite"), ("1.5", r"lie in \[-1, 1\]")], ids=["nan", "1.5"])
    def test_invalid_entry_rejected(self, tmp_path, value, match):
        rows = [f"1,2,{a},{b},{value if a + b == 'xx' else 0.1}" for a in "xyz" for b in "xyz"]
        with pytest.raises(ValueError, match=match):
            qc.load_correlations_csv(write_csv(tmp_path, rows))

    def test_repeated_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="repeats correlation zz"):
            qc.load_correlations_csv(write_csv(tmp_path, ["1,2,z,z,0.9"], pair=(1, 2)))

    @pytest.mark.parametrize("pair", [(3, 3), (2, 1), (0, 2)])
    def test_pair_outside_ordered_sites_rejected(self, tmp_path, pair):
        with pytest.raises(ValueError, match="1 <= i < j"):
            qc.load_correlations_csv(write_csv(tmp_path, [], pair=pair))
