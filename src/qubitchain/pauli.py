"""Pauli matrices, the Pauli-string basis and bit helpers for chain registers.

Convention used throughout the package: site 1 is the most significant
qubit, so a basis index j of an N-qubit register carries the bit of site i
at position N - i.  Basis index 0 is the state with every qubit in |0>
(equivalently |up>), which is the +1 eigenstate of sigma_z.  Pauli strings
on m sites follow the same order: string k = sum_i s_i 4^(m - i) is
sigma_{s_1} x ... x sigma_{s_m}, with sigma_0..sigma_3 = I, X, Y, Z.
"""

from __future__ import annotations

import functools

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # (SX + i SY)/2, maps |1> -> |0>
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # (SX - i SY)/2, maps |0> -> |1>
ID2 = np.eye(2, dtype=complex)


@functools.cache
def pauli_strings(m: int) -> np.ndarray:
    """The 4^m unnormalized Pauli strings P_k on m >= 1 sites, read-only (4^m, 2^m, 2^m); tr(P_k P_l) = 2^m delta_kl."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    strings = np.array([ID2, SX, SY, SZ])
    if m > 1:
        strings = np.array([np.kron(p, q) for p in pauli_strings(m - 1) for q in strings])
    strings.flags.writeable = False
    return strings


def site_bit(index: int | np.ndarray, site: int, n: int):
    """Bit of `site` (1-based) in basis index `index` of an `n`-qubit register."""
    return (index >> (n - site)) & 1


def z_pattern(site: int, n: int) -> np.ndarray:
    """Diagonal of sigma_z on `site` as a +/-1 vector of length 2**n."""
    idx = np.arange(2**n)
    return 1.0 - 2.0 * site_bit(idx, site, n)


def flip_map(site: int, n: int) -> np.ndarray:
    """Index permutation implementing sigma_x on `site` (an involution)."""
    return np.arange(2**n) ^ (1 << (n - site))
