"""Dense integration of the Markovian master equation for the chain.

The equation of motion is

    drho/dt = -i [H, rho]
              + sum_i [ G_i (2 s+_i rho s-_i - rho s-_i s+_i - s-_i s+_i rho)
                      + Gt_i (2 s-_i rho s+_i - rho s+_i s-_i - s+_i s-_i rho)
                      + g_i (2 sz_i rho sz_i - 2 rho) ]

with s+/- = (sx +/- i sy)/2 acting per site in the eigenbasis frame, where
|0> is each site's local ground state.  The per-site rates derive from a
single phenomenological decay rate Gamma, the thermal occupation n_T of the
environment, and the mixing angles:

    G_i  = sin^2(theta_i) (1 + n_T) Gamma      (relaxation)
    Gt_i = sin^2(theta_i) n_T Gamma            (thermal excitation)
    g_i  = cos^2(theta_i) Gamma                (pure dephasing)

Integration uses fixed-step classical Runge-Kutta (RK4) acting on the dense
density matrix; the dissipator is applied through per-site index slicing
and an elementwise damping mask, so the cost per step is dominated by the
two sparse H-rho products of the commutator.

The steady state is the null vector of the sparse Liouvillian L (the same
generator in Kronecker form on the vectorized density matrix), found by one
sparse LU solve of L vec(rho) = 0 with one row replaced by the trace
condition (Johansson, Nation & Nori, Comput. Phys. Commun. 184, 1234
(2013)) and certified by the residual of the dense right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sparse

from .chain import MixingAngles, require_hermitian
from .pauli import SP, site_bit, z_pattern

# dt must satisfy dt * max(||H||, Gamma) <= this factor (RK4 accuracy guard).
STEP_GUARD_FACTOR = 0.1
DEFAULT_DT = 0.01

_TRACE_ABORT = 1e-6
_POSITIVITY_ABORT = 1e-6
# Largest growth ||A^-1 v|| / ||v|| * max|A| of the steady-state system A on
# v_k = sin(k).  Measured at least 1.4e17 on degenerate kernels (homogeneous
# dephasing-only chains in the eigenbasis frame, N = 2-4) and at most 1.1e3
# on unique ones (N = 2-5 with Gamma from 1e-3 to 0.2, the 40 points of
# steady_scan.json, and dephasing-only chains with epsilon = 0.05 or in the
# lab frame).
_GROWTH_LIMIT = 1e10


@dataclass(frozen=True)
class NoiseSpec:
    """Phenomenological decay rate Gamma and thermal occupation n_T."""

    gamma: float = 0.0
    n_thermal: float = 0.0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.n_thermal < 0:
            raise ValueError("n_thermal must be >= 0")

    @property
    def decoherence_time(self) -> float:
        """t_d = 1/Gamma (infinite for the noiseless limit)."""
        return math.inf if self.gamma == 0 else 1.0 / self.gamma


@dataclass(frozen=True)
class RateSet:
    """Per-site relaxation (G), excitation (Gt), and dephasing (g) rates."""

    g_relax: tuple[float, ...]
    g_excite: tuple[float, ...]
    g_dephase: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "g_relax", tuple(float(v) for v in self.g_relax))
        object.__setattr__(self, "g_excite", tuple(float(v) for v in self.g_excite))
        object.__setattr__(self, "g_dephase", tuple(float(v) for v in self.g_dephase))
        if not len(self.g_relax) == len(self.g_excite) == len(self.g_dephase):
            raise ValueError("rate lists must have equal length")
        if any(v < 0 for v in self.g_relax + self.g_excite + self.g_dephase):
            raise ValueError("rates must be >= 0")
        if any(ge > gr + 1e-15 for gr, ge in zip(self.g_relax, self.g_excite)):
            raise ValueError("excitation rate may not exceed relaxation rate")

    @property
    def n_sites(self) -> int:
        return len(self.g_relax)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.g_relax + self.g_excite + self.g_dephase)

    @classmethod
    def zero(cls, n: int) -> "RateSet":
        return cls((0.0,) * n, (0.0,) * n, (0.0,) * n)


@dataclass(frozen=True)
class Trajectory:
    """Density-matrix snapshots at ascending sample times, plus drift logs."""

    times: np.ndarray
    states: list[np.ndarray]
    trace_drift: np.ndarray
    hermiticity_drift: np.ndarray


@dataclass(frozen=True)
class SteadyStateResult:
    """Solved steady state and whether its residual certifies it.

    `time_reached` is always 0.0: the state is solved for, not integrated
    to.  The field stays for callers that read it.
    """

    state: np.ndarray
    converged: bool
    time_reached: float
    residual: float


def rates_from_angles(angles: MixingAngles, noise: NoiseSpec) -> RateSet:
    """Componentwise rates G, Gt, g from mixing angles and the noise spec."""
    s2 = [math.sin(t) ** 2 for t in angles.theta]
    c2 = [math.cos(t) ** 2 for t in angles.theta]
    return RateSet(
        tuple(s * (1.0 + noise.n_thermal) * noise.gamma for s in s2),
        tuple(s * noise.n_thermal * noise.gamma for s in s2),
        tuple(c * noise.gamma for c in c2),
    )


def nbar_from_temperature(omega: float, temperature_kelvin: float, energy_unit_kelvin: float = 1.0) -> float:
    """Bose-Einstein occupation 1/(exp(omega/T) - 1) at splitting `omega` (E_C units)."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    if temperature_kelvin <= 0:
        raise ValueError("temperature must be > 0")
    x = omega * energy_unit_kelvin / temperature_kelvin
    if x > 40.0:  # 1/(e^x - 1) = e^-x to double precision; avoids overflow
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def temperature_from_nbar(omega: float, n_thermal: float, energy_unit_kelvin: float = 1.0) -> float:
    """Inverse of nbar_from_temperature, in Kelvin."""
    if omega <= 0 or n_thermal <= 0:
        raise ValueError("omega and n_thermal must be > 0")
    return omega * energy_unit_kelvin / math.log1p(1.0 / n_thermal)


class LindbladGenerator:
    """Precomputed fast application of the master-equation right-hand side."""

    def __init__(self, h: np.ndarray, rates: RateSet):
        require_hermitian(h, what="hamiltonian")
        self.dim = h.shape[0]
        self.n = int(round(np.log2(self.dim)))
        if 2**self.n != self.dim:
            raise ValueError("Hamiltonian dimension must be a power of two")
        if rates.n_sites != self.n:
            raise ValueError(f"rate set has {rates.n_sites} sites, Hamiltonian has {self.n}")
        self.rates = rates
        # Complex, as rho is: scipy would convert a real H's data on every product.
        self.h_sparse = sparse.csr_matrix(h, dtype=complex)
        self._h_transpose = self.h_sparse.T.tocsr()
        # Row-sum norm: upper-bounds the spectral norm, cheap at any size.
        self._h_norm = float(np.abs(h).sum(axis=1).max())

        # Elementwise damping mask: anticommutator parts of the jump terms
        # (diagonal operators) plus the full dephasing channel.
        idx = np.arange(self.dim)
        m = np.zeros(self.dim)
        damp = np.zeros((self.dim, self.dim))
        for i in range(1, self.n + 1):
            gr = rates.g_relax[i - 1]
            ge = rates.g_excite[i - 1]
            gd = rates.g_dephase[i - 1]
            bit = site_bit(idx, i, self.n)
            m += gr * bit + ge * (1 - bit)
            if gd:
                z = z_pattern(i, self.n)
                damp += 2.0 * gd * (np.outer(z, z) - 1.0)
        damp -= m[:, None] + m[None, :]
        self._damp = damp
        self._jump_sites = [
            (i, rates.g_relax[i - 1], rates.g_excite[i - 1])
            for i in range(1, self.n + 1)
            if rates.g_relax[i - 1] or rates.g_excite[i - 1]
        ]

    @property
    def frequency_scale(self) -> float:
        """max(||H||_2, Gamma-like rates): sets the step-size guard."""
        rate_scale = max(
            self.rates.g_relax + self.rates.g_excite + self.rates.g_dephase, default=0.0
        )
        return max(self._h_norm, rate_scale)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """drho/dt for a (not necessarily normalized) density matrix."""
        # rho H as (H^T rho^T)^T: scipy's dense @ sparse dispatch costs more
        # than the product itself at the chain lengths of a steady-state scan.
        out = -1j * (self.h_sparse @ rho - (self._h_transpose @ rho.T).T)
        out += self._damp * rho
        for site, gr, ge in self._jump_sites:
            left = 2 ** (site - 1)
            right = self.dim // (2 * left)
            r6 = rho.reshape(left, 2, right, left, 2, right)
            o6 = out.reshape(left, 2, right, left, 2, right)
            if gr:
                o6[:, 0, :, :, 0, :] += (2.0 * gr) * r6[:, 1, :, :, 1, :]
            if ge:
                o6[:, 1, :, :, 1, :] += (2.0 * ge) * r6[:, 0, :, :, 0, :]
        return out

    def superoperator(self) -> sparse.csr_matrix:
        """Sparse generator L on row-major-vectorized rho: vec(apply(rho)) = L vec(rho).

        Kronecker form, using vec(A rho B) = (A kron B^T) vec(rho): the
        commutator -i (H kron I - I kron H^T), the damping mask on the
        diagonal, and 2 G S kron S per jump, with S = |0><1| (relaxation)
        or |1><0| (excitation) on the jump's site.
        """
        d = self.dim
        eye = sparse.identity(d, format="csr")
        out = -1j * (sparse.kron(self.h_sparse, eye) - sparse.kron(eye, self._h_transpose))
        out = out + sparse.diags(self._damp.ravel())
        for site, gr, ge in self._jump_sites:
            lower = sparse.kron(sparse.kron(sparse.identity(2 ** (site - 1)), SP), sparse.identity(d >> site))
            for rate, jump in ((gr, lower), (ge, lower.T)):
                if rate:
                    out = out + (2.0 * rate) * sparse.kron(jump, jump)
        return out.tocsr()


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, rates: RateSet) -> np.ndarray:
    """One-shot right-hand side evaluation (see LindbladGenerator for loops)."""
    gen = LindbladGenerator(h, rates)
    if rho.shape != (gen.dim, gen.dim):
        raise ValueError("density matrix and Hamiltonian dimensions differ")
    return gen.apply(rho)


def _check_step(dt: float, gen: LindbladGenerator) -> None:
    if dt <= 0:
        raise ValueError("dt must be > 0")
    scale = gen.frequency_scale
    if scale > 0 and dt > STEP_GUARD_FACTOR / scale * (1 + 1e-12):
        raise ValueError(
            f"dt={dt} violates the step guard dt <= {STEP_GUARD_FACTOR}/max(||H||, rates)"
            f" = {STEP_GUARD_FACTOR / scale:.4g}"
        )


def _rk4_step(gen: LindbladGenerator, rho: np.ndarray, dt: float) -> np.ndarray:
    k1 = gen.apply(rho)
    k2 = gen.apply(rho + (0.5 * dt) * k1)
    k3 = gen.apply(rho + (0.5 * dt) * k2)
    k4 = gen.apply(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def stream(
    rho0: np.ndarray,
    h: np.ndarray,
    rates: RateSet,
    t_max: float,
    dt: float = DEFAULT_DT,
    sample_every: int = 10,
) -> Iterator[tuple[float, np.ndarray, float, float]]:
    """Integrate the master equation, yielding a snapshot every `sample_every` steps.

    Yields (t, rho, trace drift, Hermiticity drift) at t = 0, every
    `sample_every` steps and the last step; only the current state and the
    RK4 stages are held, and a yielded array is never written to again.
    Snapshots are re-Hermitized ((rho + rho^dagger)/2) and trace-renormalized;
    the drift corrected at each snapshot is yielded with it.  Cumulative trace
    drift beyond 1e-6 or a snapshot eigenvalue below -1e-6 aborts with a
    diagnostic, since either indicates a broken integration rather than roundoff.
    """
    gen = LindbladGenerator(h, rates)
    if rho0.shape != (gen.dim, gen.dim):
        raise ValueError("initial state and Hamiltonian dimensions differ")
    _check_step(dt, gen)
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    n_steps = int(round(t_max / dt))

    rho = rho0.astype(complex)
    yield 0.0, rho, abs(float(np.trace(rho).real) - 1.0), 0.0
    cumulative_trace = 0.0
    for step in range(1, n_steps + 1):
        rho = _rk4_step(gen, rho, dt)
        if step % sample_every == 0 or step == n_steps:
            herm = float(np.abs(rho - rho.conj().T).max())
            scale = float(np.abs(rho).max())
            rho = 0.5 * (rho + rho.conj().T)
            tr = float(np.trace(rho).real)
            drift = abs(tr - 1.0)
            cumulative_trace += drift
            if cumulative_trace > _TRACE_ABORT:
                raise RuntimeError(
                    f"cumulative trace drift {cumulative_trace:.3e} exceeds {_TRACE_ABORT} "
                    f"at t={step * dt:.3f}; reduce dt"
                )
            rho /= tr
            min_eig = float(np.linalg.eigvalsh(rho)[0])
            if min_eig < -_POSITIVITY_ABORT:
                raise RuntimeError(
                    f"positivity violated (min eigenvalue {min_eig:.3e}) at t={step * dt:.3f}"
                )
            yield step * dt, rho, drift, herm / scale if scale > 0 else 0.0


def evolve(
    rho0: np.ndarray,
    h: np.ndarray,
    rates: RateSet,
    t_max: float,
    dt: float = DEFAULT_DT,
    sample_every: int = 10,
) -> Trajectory:
    """Every snapshot of :func:`stream`, collected into a Trajectory."""
    times, states, trace_drift, herm_drift = zip(*stream(rho0, h, rates, t_max, dt, sample_every))
    return Trajectory(np.asarray(times), list(states), np.asarray(trace_drift), np.asarray(herm_drift))


def _certify(gen: LindbladGenerator, rho: np.ndarray) -> float:
    return float(np.linalg.norm(gen.apply(rho))) / max(float(np.linalg.norm(rho)), 1e-300)


def steady_state(h: np.ndarray, rates: RateSet, tol: float = 1e-8) -> SteadyStateResult:
    """Null vector of the sparse Liouvillian, certified by its residual.

    Solves L vec(rho) = 0 with the first row of L (the equation for
    rho[0, 0]) replaced by the trace condition tr rho = 1, by one sparse LU
    factorization; the result is re-Hermitized and trace-normalized, and is
    certified (converged=True) when ||drho/dt||_F / ||rho||_F < tol.

    Requires a unique steady state.  `rates_from_angles` with Gamma > 0
    gives every site a relaxation channel (the mixing angles have
    delta_i > 0, so sin^2(theta_i) > 0), which makes it unique.  A
    degenerate kernel (e.g. pure dephasing of a homogeneous chain in the
    eigenbasis frame) leaves the system singular to rounding and raises
    ValueError: the factors solve a fixed generic right-hand side with a
    growth above _GROWTH_LIMIT.  So do a failed factorization and a state
    with an eigenvalue below -1e-6.  The growth of a unique kernel scales
    with the inverse of its slowest rate (280 at Gamma = 1e-3 and 30 at
    Gamma = 1e-2 for N = 2), so rates below about 1e-10 of the energy scale
    are refused as well.
    """
    # Imported here: scipy.sparse.linalg adds 2 MB to every process that loads it.
    from scipy.sparse.linalg import splu

    if rates.is_zero():
        raise ValueError("steady_state requires a dissipative channel (all rates are zero)")
    gen = LindbladGenerator(h, rates)
    d = gen.dim
    diagonal = np.arange(d) * (d + 1)
    trace_row = sparse.csr_matrix((np.ones(d), (np.zeros(d, dtype=int), diagonal)), shape=(1, d * d))
    system = sparse.vstack([trace_row, gen.superoperator()[1:]], format="csc")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    # Multiple-minimum-degree ordering on A^T + A: 0.15 s and 5.9 s to factor
    # at N = 5 and 6, against 0.34 s and 18.9 s with SuperLU's default COLAMD.
    try:
        lu = splu(system, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise ValueError(f"steady-state solve failed ({exc}); the steady state is not unique") from exc
    # A generic right-hand side: no conserved quantity is orthogonal to it.
    # Reading the pivots instead (lu.U) copies the factor, 10 MB at N = 5.
    probe = np.sin(np.arange(1.0, d * d + 1)).astype(complex)
    growth = np.linalg.norm(lu.solve(probe)) / np.linalg.norm(probe) * np.abs(system.data).max()
    if growth > _GROWTH_LIMIT:
        raise ValueError(
            f"steady-state system is singular to rounding (solve growth {growth:.1e}); "
            "the steady state is not unique (does every site have a relaxation channel?)"
        )
    rho = lu.solve(rhs).reshape(d, d)
    del lu  # the factors would otherwise sit under the certificate's temporaries
    rho = 0.5 * (rho + rho.conj().T)
    rho /= float(np.trace(rho).real)
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -_POSITIVITY_ABORT:
        raise ValueError(
            f"steady-state solve returned a non-positive state (min eigenvalue {min_eig:.3e}); "
            "the steady state is likely not unique (does every site have a relaxation channel?)"
        )
    residual = _certify(gen, rho)
    return SteadyStateResult(rho, residual < tol, 0.0, residual)
