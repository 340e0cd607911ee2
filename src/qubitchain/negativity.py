"""Partial traces, partial transposes, and logarithmic negativity.

The logarithmic negativity of a bipartite state is log2 of the trace norm
of its partial transpose; it vanishes on separable states and equals 1 on a
two-qubit Bell state.  Site indices are 1-based with site 1 the most
significant qubit, matching :mod:`qubitchain.chain`.

Reductions, partial transposes and E_N accept a leading batch axis: a
stack of states (one per sample time) is reduced by one gather or matrix
product and measured by one stacked eigvalsh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import site_bit

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
    """Partial trace of a dense density matrix onto `sites` (ascending order):
    :func:`reduce_blocks` on the one block of every index.

    `rho` may carry leading batch axes; the result then stacks along them.
    """
    return reduce_blocks(np.expand_dims(rho, -3), [np.arange(rho.shape[-1])], sites)


def reduce_blocks(parts: np.ndarray, blocks: list[np.ndarray], sites) -> ReducedState:
    """Partial trace onto `sites` of the block-diagonal density matrix whose
    diagonal blocks rho[b, b] are stacked in `parts` (zero between blocks).

    Reads the summed entries straight from the blocks: a table of each
    block's positions by traced and kept bits gathers them, 2^(N+m) entries
    for m kept sites.  `parts` may carry leading batch axes before the
    block axis; the result then stacks along them.
    """
    d = sum(len(b) for b in blocks)
    n = int(round(np.log2(d)))
    if 2**n != d or parts.shape[-2:] != (len(blocks[0]),) * 2:
        raise ValueError("density matrix must be square blocks of a power-of-two total dimension")
    kept = _validate_sites(sites, n)
    tables = _gather_tables(tuple(np.asarray(b, dtype=np.intp).tobytes() for b in blocks), kept, n)
    reduced = np.zeros(parts.shape[:-3] + (2 ** len(kept),) * 2, dtype=parts.dtype)
    for (flat, mask), part in zip(tables, np.moveaxis(parts, -3, 0)):
        entries = part.reshape(part.shape[:-2] + (-1,))[..., flat]
        reduced += (entries * mask).sum(axis=-3)
    return ReducedState(kept, reduced)


@lru_cache(maxsize=64)
def _gather_tables(blocks: tuple[bytes, ...], kept: tuple[int, ...], n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per block (its basis indices as intp bytes): the flat positions in the
    block of the entries that `reduce_blocks` sums, indexed (traced bits,
    kept row bits, kept column bits), and the mask of those the block holds.

    Cached per blocks and sites; the arrays are read-only.
    """
    k = len(kept)
    idx = np.arange(2**n)
    keep, rest = np.zeros(2**n, dtype=int), np.zeros(2**n, dtype=int)
    for s in range(1, n + 1):
        if s in kept:
            keep = 2 * keep + site_bit(idx, s, n)
        else:
            rest = 2 * rest + site_bit(idx, s, n)
    tables = []
    for raw in blocks:
        b = np.frombuffer(raw, dtype=np.intp)
        table = np.full((2 ** (n - k), 2**k), -1)
        table[rest[b], keep[b]] = np.arange(len(b))
        present = table >= 0
        at = np.where(present, table, 0)
        flat = at[:, :, None] * len(b) + at[:, None, :]
        mask = present[:, :, None] & present[:, None, :]
        flat.flags.writeable = mask.flags.writeable = False
        tables.append((flat, mask))
    return tuple(tables)


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
