"""Partial traces, partial transposes, and logarithmic negativity.

The logarithmic negativity of a bipartite state is log2 of the trace norm
of its partial transpose; it vanishes on separable states and equals 1 on a
two-qubit Bell state.  Site indices are 1-based with site 1 the most
significant qubit, matching :mod:`qubitchain.chain`.

Reductions, partial transposes and E_N accept a leading batch axis: a
stack of states (one per sample time) is reduced by one einsum or matrix
product and measured by one stacked eigvalsh.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import ascii_letters

import numpy as np

# Trace-norm window treated as exactly separable; shields E_N from roundoff.
_SEPARABLE_WINDOW = 1e-10


@dataclass(frozen=True)
class ReducedState:
    """Reduced density matrix on an ordered subset of chain sites.

    `matrix` is one 2^m x 2^m matrix, or a stack of them along leading axes
    (one per sample time, as served by :func:`qubitchain.harness.propagate`).
    """

    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        if any(b <= a for a, b in zip(self.sites, self.sites[1:])):
            raise ValueError("sites must be strictly increasing")
        d = 2 ** len(self.sites)
        if self.matrix.shape[-2:] != (d, d):
            raise ValueError(f"matrix must be {d}x{d} for {len(self.sites)} sites")


def _validate_sites(sites, n: int) -> tuple[int, ...]:
    out = tuple(int(s) for s in sites)
    if not 1 <= len(out) <= 4:
        raise ValueError("between 1 and 4 sites can be retained")
    if len(set(out)) != len(out):
        raise ValueError("site indices must be distinct")
    if any(not 1 <= s <= n for s in out):
        raise ValueError(f"site indices must lie in [1, {n}]")
    return tuple(sorted(out))


def reduce(rho: np.ndarray, sites) -> ReducedState:
    """Partial trace of a dense density matrix onto `sites` (ascending order).

    `rho` may carry leading batch axes; the result then stacks along them.
    """
    dim = rho.shape[-1]
    n = int(round(np.log2(dim)))
    if rho.shape[-2:] != (dim, dim) or 2**n != dim:
        raise ValueError("density matrix dimension must be a power of two")
    kept = _validate_sites(sites, n)
    keep_pos = [s - 1 for s in kept]
    # einsum with repeated letters traces each unkept ket/bra axis pair
    # without materializing a transposed copy.
    row = list(ascii_letters[:n])
    col = list(ascii_letters[n : 2 * n])
    out = []
    for p in range(n):
        if p in keep_pos:
            out.append(row[p])
        else:
            col[p] = row[p]
    out += [col[p] for p in keep_pos]
    spec = "..." + "".join(row) + "".join(col) + "->..." + "".join(out)
    k = len(kept)
    batch = rho.shape[:-2]
    reduced = np.einsum(spec, rho.reshape(batch + (2,) * (2 * n))).reshape(batch + (2**k, 2**k))
    return ReducedState(kept, np.ascontiguousarray(reduced))


def reduce_statevector(psi: np.ndarray, sites) -> ReducedState:
    """Reduced density matrix of a pure state (cheaper than reduce(|psi><psi|)).

    `psi` may carry leading batch axes (one state per row of a stack); the
    result then stacks along them.
    """
    dim = psi.shape[-1]
    n = int(round(np.log2(dim)))
    kept = _validate_sites(sites, n)
    batch = psi.shape[:-1]
    lead = len(batch)
    keep_pos = [lead + s - 1 for s in kept]
    rest = [lead + p for p in range(n) if lead + p not in keep_pos]
    tensor = psi.reshape(batch + (2,) * n).transpose([*range(lead), *keep_pos, *rest])
    mat = tensor.reshape(batch + (2 ** len(kept), -1))
    return ReducedState(kept, mat @ mat.conj().swapaxes(-1, -2))


def _part_positions(rs: ReducedState, part) -> list[int]:
    part_sites = tuple(int(s) for s in part)
    if not part_sites:
        raise ValueError("part must be non-empty")
    if len(set(part_sites)) != len(part_sites):
        raise ValueError("part sites must be distinct")
    if not set(part_sites) <= set(rs.sites):
        raise ValueError("part must be a subset of the reduced state's sites")
    if set(part_sites) == set(rs.sites):
        raise ValueError("part must be a proper subset (full transpose is not a bipartition)")
    return [rs.sites.index(s) for s in part_sites]


def partial_transpose(rs: ReducedState, part) -> np.ndarray:
    """Transpose the indices of the subsystem `part` only (of each stacked matrix)."""
    positions = _part_positions(rs, part)
    m = len(rs.sites)
    batch = rs.matrix.shape[:-2]
    lead = len(batch)
    tensor = rs.matrix.reshape(batch + (2,) * (2 * m))
    axes = list(range(lead + 2 * m))
    for p in positions:
        axes[lead + p], axes[lead + p + m] = axes[lead + p + m], axes[lead + p]
    d = 2**m
    return tensor.transpose(axes).reshape(batch + (d, d))


def trace_norm_hermitian(matrix: np.ndarray) -> float | np.ndarray:
    """Sum of absolute eigenvalues (= trace norm) of a Hermitian matrix, or of each in a stack."""
    norms = np.abs(np.linalg.eigvalsh(matrix)).sum(axis=-1)
    return float(norms) if matrix.ndim == 2 else norms


def log_negativity(rs: ReducedState, part) -> float | np.ndarray:
    """log2 of the trace norm of the partial transpose, clamped at 0.

    A trace norm within _SEPARABLE_WINDOW of 1 reads as exactly 0.  For a
    stacked `rs` every matrix goes through one stacked eigvalsh and an
    array of values comes back.
    """
    tn = trace_norm_hermitian(partial_transpose(rs, part))
    en = np.where(np.abs(tn - 1.0) <= _SEPARABLE_WINDOW, 0.0, np.maximum(0.0, np.log2(tn)))
    return float(en) if en.ndim == 0 else en


def pair_log_negativity(rho: np.ndarray, i: int, j: int) -> float:
    """E_N of the reduced pair (i, j) of a dense chain density matrix."""
    rs = reduce(rho, (i, j))
    return log_negativity(rs, (rs.sites[0],))


def block_log_negativity(rho: np.ndarray, block_a, block_b) -> float:
    """E_N between two two-site blocks across the (block_a | block_b) cut."""
    a = tuple(int(s) for s in block_a)
    b = tuple(int(s) for s in block_b)
    if len(a) != 2 or len(b) != 2:
        raise ValueError("blocks must contain exactly two sites each")
    if len(set(a + b)) != 4:
        raise ValueError("the four block sites must be distinct")
    rs = reduce(rho, a + b)
    return log_negativity(rs, a)
