"""Initial-state preparation: eigenbasis product and Bell-head, ground, and thermal states.

State vectors are complex numpy vectors of length 2**N with unit Euclidean
norm; density matrices are Hermitian, unit-trace, positive 2**N x 2**N
arrays.  Lab-frame states are written in the sigma_z (charge) basis with
|up> = index 0; eigenbasis-frame states use the per-site energy eigenstates
|0>, |1> of :func:`qubitchain.chain.mixing_angles`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import HamiltonianBlocks, require_real_symmetric
from .lindblad import block_matrix

_SQRT2 = np.sqrt(2.0)
_DEGENERACY_TOL = 1e-10  # ground-state gap, relative to max(1, |E_0|), reported as degenerate


def eigenbasis_product(n: int) -> np.ndarray:
    """|0>^N in the eigenbasis frame (computational basis index 0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return psi


def eigenbasis_bell_head(n: int) -> np.ndarray:
    """(|01> + |10>)/sqrt(2) on sites (1, 2), |0> everywhere else."""
    if n < 2:
        raise ValueError("eigenbasis_bell_head needs n >= 2")
    psi = np.zeros(2**n, dtype=complex)
    tail = 2 ** (n - 2)
    psi[1 * tail] = 1.0 / _SQRT2  # |01 0...0>
    psi[2 * tail] = 1.0 / _SQRT2  # |10 0...0>
    return psi


@dataclass(frozen=True)
class GroundState:
    """Minimal eigenvector of a Hamiltonian plus degeneracy diagnostics."""

    vector: np.ndarray
    energy: float
    gap: float
    degenerate: bool


def _block_eigh(h: HamiltonianBlocks):
    """(indices, energies, vectors) of each diagonal block of `h`."""
    return [(b, *np.linalg.eigh(require_real_symmetric(part))) for b, part in h]


def ground_state(h: HamiltonianBlocks) -> GroundState:
    """Ground state of a real symmetric operator given as its diagonal blocks
    (:func:`qubitchain.chain.build_hamiltonian_eigen`; a dense d x d matrix
    is one block, ``[(np.arange(d), h)]``).

    Each block is diagonalized on its own and the state lies in one block
    exactly.  For (numerically) degenerate ground spaces one minimal
    eigenvector is returned and the `degenerate` flag is set; callers that
    care must check it.
    """
    parts = _block_eigh(h)
    energies = np.sort(np.concatenate([e for _, e, _ in parts]))
    b, e, v = min(parts, key=lambda part: part[1][0])
    vec = np.zeros(len(energies), dtype=v.dtype)
    vec[b] = v[:, 0]
    gap = float(energies[1] - energies[0]) if len(energies) > 1 else np.inf
    scale = max(1.0, abs(float(energies[0])))
    return GroundState(vec, float(energies[0]), gap, gap < _DEGENERACY_TOL * scale)


def thermal_state(h: HamiltonianBlocks, temperature_kelvin: float, energy_unit_kelvin: float = 1.0) -> np.ndarray:
    """Gibbs state exp(-H/T)/Z by eigendecomposition of each block of `h` (see :func:`ground_state`).

    `h` is in units of E_C; the temperature is given in Kelvin and converted
    with E_C = `energy_unit_kelvin` (hbar = k_B = 1).
    """
    if temperature_kelvin <= 0:
        raise ValueError("temperature must be > 0")
    t_ec = temperature_kelvin / energy_unit_kelvin
    parts = _block_eigh(h)
    # Shift by the ground energy before exponentiating to avoid overflow.
    ground = min(e[0] for _, e, _ in parts)
    weights = [np.exp(-(e - ground) / t_ec) for _, e, _ in parts]
    z = sum(w.sum() for w in weights)
    return block_matrix([(v * (w / z)) @ v.conj().T for (_, _, v), w in zip(parts, weights)], [b for b, _, _ in parts])


def fidelity(state: np.ndarray, rho: np.ndarray) -> float:
    """<g|rho|g> for a pure reference state g and a density matrix rho."""
    if rho.shape != (state.size, state.size):
        raise ValueError("dimension mismatch between state and density matrix")
    value = complex(state.conj() @ rho @ state)
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise ValueError(f"fidelity has non-negligible imaginary part {value.imag:.3e}")
    return float(value.real)


def density_from_pure(state: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| of a normalized state vector."""
    return np.outer(state, state.conj())
