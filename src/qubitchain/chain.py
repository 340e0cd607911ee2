"""Chain parameterization, disorder sampling, and Hamiltonian construction.

A chain of N charge-qubit-like two-level systems with per-site energy bias
epsilon_i, tunneling splitting delta_i, and nearest-neighbour sigma_z sigma_z
couplings K_i.  All energies are expressed in units of the charging energy
E_C; times are in units of 1/E_C (hbar = k_B = 1).  Two frames are
supported:

* the lab (charge) frame,
      H = -1/2 sum_i (eps_i Z_i + del_i X_i) - 1/2 sum_i K_i Z_i Z_{i+1}
* the single-qubit eigenbasis frame, obtained by rotating each site by its
  mixing angle theta_i = atan2(del_i, eps_i),
      H' = -1/2 sum_i w_i Z_i
           - 1/2 sum_i K_i (c_i Z_i + s_i X_i)(c_{i+1} Z_{i+1} + s_{i+1} X_{i+1})
  with w_i = sqrt(eps_i^2 + del_i^2), c_i = cos(theta_i), s_i = sin(theta_i).

Both builders produce the same spectrum; the eigenbasis frame is the one in
which the dissipative rates of :mod:`qubitchain.lindblad` are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .pauli import flip_map, z_pattern

# Dense operators above 2**14 are refused; longer chains go through the MPS
# solver instead.
DENSE_SITE_LIMIT = 14

DISORDER_TARGETS = ("epsilon", "delta", "coupling")


def _as_tuple(values: float | Sequence[float], n: int, name: str) -> tuple[float, ...]:
    if isinstance(values, (int, float)):
        return (float(values),) * n
    out = tuple(float(v) for v in values)
    if len(out) != n:
        raise ValueError(f"{name} must have length {n}, got {len(out)}")
    return out


@dataclass(frozen=True)
class ChainSpec:
    """Per-site energy parameters and bond couplings of an open chain.

    epsilon, delta have length n_qubits; coupling has length n_qubits - 1
    (open boundaries).  delta_i > 0 is required (coherent regime).
    """

    n_qubits: int
    epsilon: tuple[float, ...]
    delta: tuple[float, ...]
    coupling: tuple[float, ...]
    energy_unit_kelvin: float = 1.0

    def __post_init__(self):
        n = self.n_qubits
        if n < 1:
            raise ValueError("n_qubits must be >= 1")
        object.__setattr__(self, "epsilon", _as_tuple(self.epsilon, n, "epsilon"))
        object.__setattr__(self, "delta", _as_tuple(self.delta, n, "delta"))
        object.__setattr__(self, "coupling", _as_tuple(self.coupling, max(n - 1, 0), "coupling"))
        if any(d <= 0 for d in self.delta):
            raise ValueError("all delta_i must be > 0")
        if self.energy_unit_kelvin <= 0:
            raise ValueError("energy_unit_kelvin must be > 0")

    @classmethod
    def homogeneous(
        cls,
        n_qubits: int,
        epsilon: float = 0.0,
        delta: float = 0.1,
        coupling: float = 0.025,
        energy_unit_kelvin: float = 1.0,
    ) -> "ChainSpec":
        """Uniform chain; defaults are the degeneracy-point working values."""
        return cls(n_qubits, epsilon, delta, coupling, energy_unit_kelvin)

    def with_coupling(self, k: float) -> "ChainSpec":
        """Copy of this spec with every bond coupling set to `k`."""
        return replace(self, coupling=(float(k),) * (self.n_qubits - 1))

    def scale_coupling(self, factor: float) -> "ChainSpec":
        """Copy with every bond coupling multiplied by `factor`."""
        return replace(self, coupling=tuple(k * factor for k in self.coupling))


@dataclass(frozen=True)
class MixingAngles:
    """Per-site rotation angles theta_i and splittings w_i of the eigenbasis frame."""

    theta: tuple[float, ...]
    omega: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        if len(self.theta) != len(self.omega):
            raise ValueError("theta and omega must have equal length")
        if any(w <= 0 for w in self.omega):
            raise ValueError("all omega_i must be > 0")


@dataclass(frozen=True)
class DisorderSpec:
    """Static multiplicative disorder of strength `fraction` on the chosen targets."""

    fraction: float
    targets: frozenset[str]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "targets", frozenset(self.targets))
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("fraction must satisfy 0 <= d < 1")
        bad = self.targets - set(DISORDER_TARGETS)
        if bad:
            raise ValueError(f"unknown disorder targets: {sorted(bad)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class QuenchSpec:
    """Homogeneous coupling before (k_ini) and after (k_fin) the instantaneous switch."""

    k_ini: float
    k_fin: float

    def __post_init__(self):
        if self.k_ini < 0:
            raise ValueError("k_ini must be >= 0")


def charge_qubit_bias(n_g: float, e_c: float) -> float:
    """Energy bias of a charge qubit at gate charge n_g: 4 e_c (1 - 2 n_g)."""
    if e_c <= 0:
        raise ValueError("e_c must be > 0")
    return 4.0 * e_c * (1.0 - 2.0 * n_g)


def mixing_angles(spec: ChainSpec) -> MixingAngles:
    """Mixing angles theta_i = atan2(delta_i, epsilon_i) and splittings omega_i.

    With delta_i > 0 this places theta_i in (0, pi); epsilon_i = 0 gives
    exactly theta_i = pi/2 (relaxation-only coupling to the environment).
    """
    theta = tuple(math.atan2(d, e) for e, d in zip(spec.epsilon, spec.delta))
    omega = tuple(math.hypot(e, d) for e, d in zip(spec.epsilon, spec.delta))
    return MixingAngles(theta, omega)


def _check_dense_size(n: int) -> None:
    if n > DENSE_SITE_LIMIT:
        raise ValueError(
            f"dense construction refused for N={n} > {DENSE_SITE_LIMIT}; use the MPS solver"
        )


def _new_dense(n: int) -> np.ndarray:
    # Every term of both frames is real.
    return np.zeros((2**n, 2**n))


def _add_diagonal(h: np.ndarray, diag: np.ndarray) -> None:
    h[np.diag_indices_from(h)] += diag


def _add_flip(h: np.ndarray, col_map: np.ndarray, values: np.ndarray | float) -> None:
    # Adds value[j] at (j, col_map[j]); for involutive maps this fills both
    # triangles symmetrically in one pass.
    h[np.arange(h.shape[0]), col_map] += values


def build_hamiltonian_lab(spec: ChainSpec) -> np.ndarray:
    """Dense real lab-frame chain Hamiltonian (site 1 most significant)."""
    n = spec.n_qubits
    _check_dense_size(n)
    h = _new_dense(n)
    diag = np.zeros(2**n)
    for i in range(1, n + 1):
        diag += -0.5 * spec.epsilon[i - 1] * z_pattern(i, n)
        _add_flip(h, flip_map(i, n), -0.5 * spec.delta[i - 1])
    for i in range(1, n):
        diag += -0.5 * spec.coupling[i - 1] * z_pattern(i, n) * z_pattern(i + 1, n)
    _add_diagonal(h, diag)
    return h


def build_hamiltonian_eigen(spec: ChainSpec) -> np.ndarray:
    """Dense real eigenbasis-frame chain Hamiltonian (same spectrum as the lab frame)."""
    n = spec.n_qubits
    _check_dense_size(n)
    angles = mixing_angles(spec)
    c = np.cos(angles.theta)
    s = np.sin(angles.theta)
    h = _new_dense(n)
    diag = np.zeros(2**n)
    for i in range(1, n + 1):
        diag += -0.5 * angles.omega[i - 1] * z_pattern(i, n)
    for i in range(1, n):
        k = -0.5 * spec.coupling[i - 1]
        zi, zj = z_pattern(i, n), z_pattern(i + 1, n)
        fi, fj = flip_map(i, n), flip_map(i + 1, n)
        ci, si, cj, sj = c[i - 1], s[i - 1], c[i], s[i]
        diag += k * ci * cj * zi * zj
        _add_flip(h, fj, k * ci * sj * zi)
        _add_flip(h, fi, k * si * cj * zj)
        _add_flip(h, fi[fj], k * si * sj)
    _add_diagonal(h, diag)
    return h


def parity_blocks(spec: ChainSpec) -> list[np.ndarray]:
    """Basis indices of the diagonal blocks of the eigenbasis-frame Hamiltonian.

    With every epsilon_i = 0 (theta_i = pi/2) the couplings flip sites in
    pairs, so H' commutes with the parity prod_i Z_i and splits into the
    even and odd popcount sectors; otherwise one block holds every index.
    The split is read from the spec, not from H': its parity-odd entries
    are K c_i s_j / 2 with c_i = cos(pi/2) = 6e-17, about 1.5e-18, and are
    dropped by the split.
    """
    n = spec.n_qubits
    index = np.arange(2**n)
    if any(e != 0.0 for e in spec.epsilon):
        return [index]
    odd = np.prod([z_pattern(i, n) for i in range(1, n + 1)], axis=0) < 0
    return [index[~odd], index[odd]]


def frame_rotation(angles: MixingAngles) -> np.ndarray:
    """Unitary mapping eigenbasis amplitudes to lab-frame amplitudes.

    Column s of the per-site factor is the lab-frame representation of the
    eigenbasis state |s>, built from theta_i.
    """
    out = np.eye(1, dtype=complex)
    for t in angles.theta:
        c2, s2 = math.cos(t / 2.0), math.sin(t / 2.0)
        u = np.array([[c2, -s2], [s2, c2]], dtype=complex)
        out = np.kron(out, u)
    return out


def sample_disorder(spec: ChainSpec, dis: DisorderSpec) -> ChainSpec:
    """Draw one static-disorder realization of `spec`.

    Each targeted parameter alpha is replaced by an independent uniform draw
    from [(1-d) alpha, (1+d) alpha]; non-targeted parameters are unchanged.
    A targeted epsilon_i that is exactly zero (degenerate interval) is
    instead perturbed additively, uniform in [-d delta_i, +d delta_i]; this
    models limited bias control at the degeneracy point and is an
    interpretation, not a universally fixed convention.
    """
    rng = np.random.default_rng(dis.seed)
    d = dis.fraction
    epsilon = spec.epsilon
    delta = spec.delta
    coupling = spec.coupling
    if "epsilon" in dis.targets:
        epsilon = tuple(
            rng.uniform(-d * dl, d * dl) if e == 0.0 else rng.uniform((1 - d) * e, (1 + d) * e)
            for e, dl in zip(spec.epsilon, spec.delta)
        )
    if "delta" in dis.targets:
        delta = tuple(rng.uniform((1 - d) * v, (1 + d) * v) for v in spec.delta)
    if "coupling" in dis.targets:
        coupling = tuple(rng.uniform((1 - d) * v, (1 + d) * v) for v in spec.coupling)
    return replace(spec, epsilon=epsilon, delta=delta, coupling=coupling)


def is_hermitian(matrix: np.ndarray, rtol: float = 1e-12) -> bool:
    """Check M = M^dagger within `rtol` relative to the largest element."""
    scale = max(np.abs(matrix).max(), 1e-300)
    return bool(np.abs(matrix - matrix.conj().T).max() <= rtol * scale)


def require_hermitian(matrix: np.ndarray, rtol: float = 1e-12, what: str = "operator") -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not is_hermitian(matrix, rtol):
        raise ValueError(f"{what} is not Hermitian within tolerance {rtol}")
