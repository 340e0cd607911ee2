"""Correlation-based lower bounds on the logarithmic negativity.

Measuring the nine two-site spin-spin correlations
C^{ab}_{i,j} = Tr[sigma^a_i sigma^b_j rho] (a, b = x, y, z) is far cheaper
than full tomography, and simple functions of them bound E_N from below:

    C1 = max[0, log2(|Cxx| + |Czz|)]
    C2 = max[0, log2(1 + |Cxx| + |Cyy| + |Czz|) - 1]

For states whose correlation matrix X is symmetric, X is diagonalised by a
single rotation of the measurement axes, and evaluating C2 on the
eigenvalues of X gives the tightest bound of this family:

    C2' = max[0, log2(1 + |l1| + |l2| + |l3|) - 1]

together with the optimal axes (the eigenvectors).

A correlation matrix is a float array: one 3x3 matrix with rows and columns
ordered (x, y, z), or a stack of them shaped (..., 3, 3), as the stacked
pair states of :func:`qubitchain.harness.propagate` give.  Each bound maps
one matrix to a float and a stack to one value per matrix; only
:func:`bound_c2_optimized`, which also returns the optimal axes, takes one
matrix.  The asymmetry of X is always computed from its entries.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .negativity import ReducedState, reduce
from .pauli import pauli_strings

AXES = ("x", "y", "z")

# Asymmetry policy for the optimized bound: silently symmetrize below the
# first threshold, symmetrize with a flag below the second, refuse above it.
SYMMETRY_TOL = 1e-8
SYMMETRY_WARN_LIMIT = 1e-4

_IMAG_TOL = 1e-10

# sigma^a kron sigma^b at [row a, column b], axes ordered as AXES.
_PAIR_PAULI = pauli_strings(2).reshape(4, 4, 4, 4)[1:, 1:]


@dataclass(frozen=True)
class OptimizedBound:
    """Value of the rotation-optimized bound and the optimal measurement axes.

    `axes` rows are the unit vectors a, b, c along which equal-axis
    correlations reproduce the eigenvalues of X.
    """

    value: float
    axes: np.ndarray
    eigenvalues: np.ndarray


def _checked(x: np.ndarray) -> np.ndarray:
    """`x`, refused unless every correlation is finite and lies in [-1, 1]."""
    if not np.isfinite(x).all():
        raise ValueError("correlations must be finite")
    if (np.abs(x) > 1.0 + 1e-9).any():
        raise ValueError("correlations must lie in [-1, 1]")
    return x


def correlation_matrix(rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """All nine correlations of the pair (i, j) of the density matrix `rho`."""
    return correlation_matrix_from_pair(reduce(rho, (i, j)))


def correlation_matrix_from_pair(pair: ReducedState) -> np.ndarray:
    """Correlation matrix of a two-site ReducedState: 3x3, or (..., 3, 3) for a stacked state."""
    if len(pair.sites) != 2:
        raise ValueError("a two-site reduced state is required")
    # Trace of each full product, not a contraction: a stack rounds as its matrices one at a time.
    values = np.trace(_PAIR_PAULI @ pair.matrix[..., None, None, :, :], axis1=-2, axis2=-1)
    imag = np.abs(values.imag)
    if (imag > _IMAG_TOL).any():
        r, c = np.unravel_index(imag.argmax(), imag.shape)[-2:]
        raise ValueError(f"correlation C^{AXES[r]}{AXES[c]} has imaginary part {imag.max():.3e}; state is corrupted")
    return _checked(np.ascontiguousarray(values.real))


def asymmetry(x) -> float | np.ndarray:
    """Largest |X_ab - X_ba| of each correlation matrix."""
    x = np.asarray(x, dtype=float)
    return np.abs(x - np.swapaxes(x, -1, -2)).max(axis=(-2, -1))


def _excess(s) -> float | np.ndarray:
    """max[0, log2(s) - 1] of each entry of `s`."""
    return np.log2(np.maximum(s, 2.0)) - 1.0


def bound_c1(x) -> float | np.ndarray:
    """max[0, log2(|Cxx| + |Czz|)]: usable when only xx and zz are measured."""
    x = np.asarray(x, dtype=float)
    return np.log2(np.maximum(np.abs(x[..., 0, 0]) + np.abs(x[..., 2, 2]), 1.0))


def bound_c2(x) -> float | np.ndarray:
    """max[0, log2(1 + |Cxx| + |Cyy| + |Czz|) - 1]: tighter, needs yy as well."""
    x = np.asarray(x, dtype=float)
    return _excess(1.0 + np.abs(x[..., 0, 0]) + np.abs(x[..., 1, 1]) + np.abs(x[..., 2, 2]))


def c2_opt_defined(asymmetry):
    """Whether C2' is defined at this asymmetry of X (elementwise for arrays).

    Where it is not, C2' is refused by :func:`bound_c2_optimized` and
    written as NaN.
    """
    return asymmetry < SYMMETRY_WARN_LIMIT


def _symmetric_eigh(x: np.ndarray):
    """Eigenvalues and eigenvectors of each symmetrized X."""
    return np.linalg.eigh(0.5 * (x + np.swapaxes(x, -1, -2)))


def bound_c2_optimized(x) -> OptimizedBound:
    """Rotation-optimized bound of one 3x3 X, from the eigenvalues of X symmetrized.

    Valid only for (near-)symmetric correlation matrices: X is symmetrized
    where :func:`c2_opt_defined` holds for its :func:`asymmetry` and refused
    otherwise.  Callers report asymmetry of SYMMETRY_TOL or more through
    :func:`asymmetry_flags`.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3, 3):
        raise ValueError(f"the optimized bound takes one 3x3 matrix, got shape {x.shape}")
    a = asymmetry(x)
    if not c2_opt_defined(a):
        raise ValueError(
            f"correlation matrix asymmetry {a:.3e} exceeds "
            f"{SYMMETRY_WARN_LIMIT}; the optimized bound requires a symmetric X"
        )
    eigenvalues, eigenvectors = _symmetric_eigh(x)
    # An axis and its negative measure the same; each is signed so that its
    # largest component is positive, not as eigh happens to return it.
    axes = eigenvectors.T.copy()
    axes *= np.sign(axes[np.arange(3), np.abs(axes).argmax(axis=1)])[:, None]
    return OptimizedBound(_excess(1.0 + np.abs(eigenvalues).sum()), axes, eigenvalues)


def c2_opt_value(x) -> float | np.ndarray:
    """C2' of each X, or NaN where it is not defined."""
    x = np.asarray(x, dtype=float)
    value = _excess(1.0 + np.abs(_symmetric_eigh(x)[0]).sum(axis=-1))
    # [()] makes the 0-d result for one matrix a scalar.
    return np.where(c2_opt_defined(asymmetry(x)), value, math.nan)[()]


def asymmetry_flags(pair: tuple[int, int], asymmetries) -> list[str]:
    """Manifest flags for the asymmetries of a pair's correlation matrices.

    One flag per kind: C2' evaluated on a symmetrized X (asymmetry of
    SYMMETRY_TOL or more), and C2' skipped as undefined.  Each gives the
    number of samples and their largest asymmetry.
    """
    a = np.asarray(asymmetries, dtype=float).ravel()
    defined = c2_opt_defined(a)
    flags = []
    for kind, hit in (("symmetrized", defined & (a >= SYMMETRY_TOL)), ("skipped", ~defined)):
        if hit.any():
            flags.append(
                f"c2_opt {kind} for pair {tuple(pair)} at {int(hit.sum())} of {a.size} samples "
                f"(max asymmetry {a[hit].max():.2e})"
            )
    return flags


def frozen_axes_bound(x, axes: np.ndarray) -> float | np.ndarray:
    """C2 of each X measured along a fixed rotated axes triple (rows of `axes`).

    Lets an experiment keep one measurement basis over a time window instead
    of re-optimizing at every instant.
    """
    axes = np.asarray(axes, dtype=float)
    if axes.shape != (3, 3):
        raise ValueError("axes must be a 3x3 rotation matrix (rows are axes)")
    if np.abs(axes @ axes.T - np.eye(3)).max() > 1e-8:
        raise ValueError("axes rows must be orthonormal")
    return bound_c2(axes @ np.asarray(x, dtype=float) @ axes.T)


def load_correlations_csv(path: str | Path) -> dict[tuple[int, int], np.ndarray]:
    """Read measured correlations from a CSV with columns i, j, a, b, value.

    Returns one 3x3 correlation matrix per (i, j) pair with 1 <= i < j;
    every pair must come with all nine axis combinations, each exactly once,
    and every value must be finite and lie in [-1, 1].
    """
    cells: dict[tuple[int, int], dict[tuple[str, str], float]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"i", "j", "a", "b", "value"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(f"correlation CSV must have columns {sorted(required)}")
        for row in reader:
            i, j = int(row["i"]), int(row["j"])
            a, b = row["a"].strip().lower(), row["b"].strip().lower()
            if a not in AXES or b not in AXES:
                raise ValueError(f"unknown axis pair ({a}, {b}) in {path}")
            if not 1 <= i < j:
                raise ValueError(f"pair ({i}, {j}) in {path} must satisfy 1 <= i < j")
            values = cells.setdefault((i, j), {})
            if (a, b) in values:
                raise ValueError(f"pair ({i}, {j}) repeats correlation {a}{b} in {path}")
            values[(a, b)] = float(row["value"])
    out = {}
    for pair, values in sorted(cells.items()):
        if len(values) != 9:
            missing = [f"{a}{b}" for a in AXES for b in AXES if (a, b) not in values]
            raise ValueError(f"pair {pair} is missing correlations: {missing}")
        out[pair] = _checked(np.array([[values[(a, b)] for b in AXES] for a in AXES]))
    return out
