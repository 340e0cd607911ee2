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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .negativity import ReducedState, reduce
from .pauli import PAULI_BY_AXIS

AXES = ("x", "y", "z")

# Asymmetry policy for the optimized bound: silently symmetrize below the
# first threshold, symmetrize with a flag below the second, refuse above it.
SYMMETRY_TOL = 1e-8
SYMMETRY_WARN_LIMIT = 1e-4

_IMAG_TOL = 1e-10

_PAIR_PAULI = {
    (a, b): np.kron(PAULI_BY_AXIS[a], PAULI_BY_AXIS[b]) for a in AXES for b in AXES
}


@dataclass(frozen=True)
class CorrelationMatrix:
    """3x3 matrix of two-site correlations, axes ordered (x, y, z)."""

    entries: np.ndarray
    sites: tuple[int, int]
    asymmetry: float

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (3, 3):
            raise ValueError("correlation matrix must be 3x3")
        if np.abs(entries).max() > 1.0 + 1e-9:
            raise ValueError("correlations must lie in [-1, 1]")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "sites", (int(self.sites[0]), int(self.sites[1])))
        object.__setattr__(self, "asymmetry", float(self.asymmetry))

    @classmethod
    def from_entries(cls, entries: np.ndarray, sites: tuple[int, int] = (1, 2)) -> "CorrelationMatrix":
        entries = np.asarray(entries, dtype=float)
        asymmetry = float(np.abs(entries - entries.T).max())
        return cls(entries, sites, asymmetry)


@dataclass(frozen=True)
class OptimizedBound:
    """Value of the rotation-optimized bound and the optimal measurement axes.

    `axes` rows are the unit vectors a, b, c along which equal-axis
    correlations reproduce the eigenvalues of X.
    """

    value: float
    axes: np.ndarray
    eigenvalues: np.ndarray


def correlation(rho: np.ndarray, i: int, j: int, a: str, b: str) -> float:
    """Tr[sigma^a_i sigma^b_j rho] for a dense chain density matrix."""
    if a not in AXES or b not in AXES:
        raise ValueError(f"axes must be in {AXES}")
    pair = reduce(rho, (i, j))
    return _pair_correlation(pair, a, b, swap=(i > j))


def _pair_correlation(pair: ReducedState, a: str, b: str, swap: bool = False) -> float:
    if swap:
        a, b = b, a
    value = complex(np.trace(_PAIR_PAULI[(a, b)] @ pair.matrix))
    if abs(value.imag) > _IMAG_TOL:
        raise ValueError(
            f"correlation C^{a}{b} has imaginary part {value.imag:.3e}; state is corrupted"
        )
    return float(value.real)


def correlation_matrix(rho: np.ndarray, i: int, j: int) -> CorrelationMatrix:
    """All nine correlations of the pair (i, j) as a CorrelationMatrix."""
    pair = reduce(rho, (i, j))
    return correlation_matrix_from_pair(pair)


def correlation_matrix_from_pair(pair: ReducedState) -> CorrelationMatrix:
    """Correlation matrix of a two-site ReducedState."""
    if len(pair.sites) != 2:
        raise ValueError("a two-site reduced state is required")
    entries = np.empty((3, 3))
    for r, a in enumerate(AXES):
        for c, b in enumerate(AXES):
            entries[r, c] = _pair_correlation(pair, a, b)
    return CorrelationMatrix.from_entries(entries, pair.sites)


def bound_c1(x: CorrelationMatrix) -> float:
    """max[0, log2(|Cxx| + |Czz|)]: usable when only xx and zz are measured."""
    s = abs(x.entries[0, 0]) + abs(x.entries[2, 2])
    return max(0.0, float(np.log2(s))) if s > 0 else 0.0


def bound_c2(x: CorrelationMatrix) -> float:
    """max[0, log2(1 + |Cxx| + |Cyy| + |Czz|) - 1]: tighter, needs yy as well."""
    s = 1.0 + abs(x.entries[0, 0]) + abs(x.entries[1, 1]) + abs(x.entries[2, 2])
    return max(0.0, float(np.log2(s)) - 1.0)


def c2_opt_defined(asymmetry):
    """Whether C2' is defined at this asymmetry of X (elementwise for arrays).

    Where it is not, C2' is refused by :func:`bound_c2_optimized` and
    written as NaN.
    """
    return asymmetry < SYMMETRY_WARN_LIMIT


def bound_c2_optimized(x: CorrelationMatrix) -> OptimizedBound:
    """Rotation-optimized bound from the eigenvalues of the symmetrized X.

    Valid only for (near-)symmetric correlation matrices: X is symmetrized
    where :func:`c2_opt_defined` holds and refused otherwise.  Callers
    report asymmetry of SYMMETRY_TOL or more through :func:`asymmetry_flags`.
    """
    if not c2_opt_defined(x.asymmetry):
        raise ValueError(
            f"correlation matrix asymmetry {x.asymmetry:.3e} exceeds "
            f"{SYMMETRY_WARN_LIMIT}; the optimized bound requires a symmetric X"
        )
    sym = 0.5 * (x.entries + x.entries.T)
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    s = 1.0 + float(np.abs(eigenvalues).sum())
    value = max(0.0, float(np.log2(s)) - 1.0)
    return OptimizedBound(value, eigenvectors.T.copy(), eigenvalues)


def c2_opt_value(x: CorrelationMatrix) -> float:
    """C2' of X, or NaN where it is not defined."""
    return bound_c2_optimized(x).value if c2_opt_defined(x.asymmetry) else math.nan


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


def frozen_axes_bound(x: CorrelationMatrix, axes: np.ndarray) -> float:
    """C2 evaluated along a fixed rotated axes triple (rows of `axes`).

    Lets an experiment keep one measurement basis over a time window instead
    of re-optimizing at every instant.
    """
    axes = np.asarray(axes, dtype=float)
    if axes.shape != (3, 3):
        raise ValueError("axes must be a 3x3 rotation matrix (rows are axes)")
    if np.abs(axes @ axes.T - np.eye(3)).max() > 1e-8:
        raise ValueError("axes rows must be orthonormal")
    rotated = axes @ x.entries @ axes.T
    s = 1.0 + abs(rotated[0, 0]) + abs(rotated[1, 1]) + abs(rotated[2, 2])
    return max(0.0, float(np.log2(s)) - 1.0)


def load_correlations_csv(path: str | Path) -> dict[tuple[int, int], CorrelationMatrix]:
    """Read measured correlations from a CSV with columns i, j, a, b, value.

    Returns one CorrelationMatrix per (i, j) pair; every pair must come with
    all nine axis combinations.
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
            cells.setdefault((i, j), {})[(a, b)] = float(row["value"])
    out = {}
    for pair, values in sorted(cells.items()):
        if len(values) != 9:
            missing = [f"{a}{b}" for a in AXES for b in AXES if (a, b) not in values]
            raise ValueError(f"pair {pair} is missing correlations: {missing}")
        entries = np.array([[values[(a, b)] for b in AXES] for a in AXES])
        out[pair] = CorrelationMatrix.from_entries(entries, pair)
    return out
