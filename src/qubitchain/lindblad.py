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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sparse

from .chain import MixingAngles, require_hermitian
from .pauli import site_bit, z_pattern

logger = logging.getLogger(__name__)

# dt must satisfy dt * max(||H||, Gamma) <= this factor (RK4 accuracy guard).
STEP_GUARD_FACTOR = 0.1
DEFAULT_DT = 0.01

_TRACE_ABORT = 1e-6
_POSITIVITY_ABORT = 1e-6


@dataclass(frozen=True)
class NoiseSpec:
    """Phenomenological decay rate Gamma and thermal occupation n_T."""

    gamma: float
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
    """Final state of a convergence run and whether it was certified."""

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
        self.h_sparse = sparse.csr_matrix(h)
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
        h_rho = self.h_sparse @ rho
        rho_h = (self.h_sparse @ rho.conj().T).conj().T  # rho H, valid since H = H^dagger
        out = -1j * (h_rho - rho_h)
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

    def superoperator(self) -> np.ndarray:
        """Dense matrix of the generator on row-major-vectorized rho (dim <= 32)."""
        d = self.dim
        if d > 32:
            raise ValueError("superoperator matrix refused above dimension 32")
        basis = np.zeros((d, d), dtype=complex)
        out = np.empty((d * d, d * d), dtype=complex)
        for k in range(d * d):
            basis.flat[k] = 1.0
            out[:, k] = self.apply(basis).ravel()
            basis.flat[k] = 0.0
        return out


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


def _certify(gen: LindbladGenerator, rho: np.ndarray, tol: float) -> float:
    return float(np.linalg.norm(gen.apply(rho))) / max(float(np.linalg.norm(rho)), 1e-300)


def steady_state(
    rho0: np.ndarray,
    h: np.ndarray,
    rates: RateSet,
    tol: float = 1e-8,
    t_cap: float = 2e4,
    dt: float | None = None,
) -> SteadyStateResult:
    """Integrate until the relative residual ||drho/dt||_F / ||rho||_F < tol.

    Requires a dissipative channel (some nonzero rate).  For chains of up to
    five sites the generator is exponentiated once on the vectorized operator
    space and time advances in exact chunks; otherwise RK4 stepping is used.
    A result that reaches `t_cap` without certification is returned with
    converged=False, never silently.
    """
    if rates.is_zero():
        raise ValueError("steady_state requires a dissipative channel (all rates are zero)")
    gen = LindbladGenerator(h, rates)
    if rho0.shape != (gen.dim, gen.dim):
        raise ValueError("initial state and Hamiltonian dimensions differ")

    rho = rho0.astype(complex).copy()
    if gen.dim <= 32:
        # Exact propagation: one matrix exponential of the vectorized
        # generator, applied in chunks until the residual certifies.
        chunk = min(100.0, t_cap)
        propagator = _expm_superoperator(gen, chunk)
        t = 0.0
        residual = _certify(gen, rho, tol)
        while residual >= tol and t < t_cap:
            rho = (propagator @ rho.ravel()).reshape(gen.dim, gen.dim)
            rho = 0.5 * (rho + rho.conj().T)
            rho /= float(np.trace(rho).real)
            t += chunk
            residual = _certify(gen, rho, tol)
        return SteadyStateResult(rho, residual < tol, t, residual)

    if dt is None:
        scale = gen.frequency_scale
        dt = STEP_GUARD_FACTOR / scale if scale > 0 else DEFAULT_DT
    _check_step(dt, gen)
    check_every = max(1, int(round(1.0 / dt)))
    t = 0.0
    residual = _certify(gen, rho, tol)
    steps = 0
    while residual >= tol and t < t_cap:
        rho = _rk4_step(gen, rho, dt)
        t += dt
        steps += 1
        if steps % check_every == 0:
            rho = 0.5 * (rho + rho.conj().T)
            rho /= float(np.trace(rho).real)
            residual = _certify(gen, rho, tol)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= float(np.trace(rho).real)
    residual = _certify(gen, rho, tol)
    converged = residual < tol
    if not converged:
        logger.warning("steady_state not certified: residual %.3e after t=%.1f", residual, t)
    return SteadyStateResult(rho, converged, t, residual)


def _expm_superoperator(gen: LindbladGenerator, t: float) -> np.ndarray:
    from scipy.linalg import expm

    return expm(gen.superoperator() * t)


def unitary_propagate(rho0: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) rho exp(+iHt) by eigendecomposition (noiseless oracle)."""
    require_hermitian(h, what="hamiltonian")
    energies, vectors = np.linalg.eigh(h)
    phases = np.exp(-1j * energies * t)
    u = (vectors * phases) @ vectors.conj().T
    return u @ rho0 @ u.conj().T
