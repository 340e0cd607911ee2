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

The generator acts on a sector of rho: its diagonal blocks rho[b, b] over
equal-size index blocks b, stacked as one (blocks, m, m) array.  When every
epsilon_i = 0 the chain has the weak parity symmetry rho -> P rho P with
P = prod_i Z_i (Buca & Prosen, New J. Phys. 14, 073007 (2012)): H keeps
each parity sector, every jump s+/-_i flips it and sz_i keeps it, so a
state without coherence between the even and odd sectors never gains any.
The blocks of rho are those of H as
:func:`qubitchain.chain.build_hamiltonian_eigen` returns it: the parity
sectors, whose rho_ee + rho_oo holds half the entries of rho, or one block
of every index, whose sector is all of rho.  Each block rho = A + iB (A real
symmetric, B real antisymmetric) is held as the real matrix R = A + B, so
that every real R is a Hermitian state (:func:`real_form`, :func:`density`);
with real H the equation reads dR/dt = (H R)^T - H R^T + D R.  D, the rest
of the generator, is one precomputed real sparse matrix on the vectorized
sector: the damping on its diagonal, and the jumps as the indexed entries
that carry rho[i, j] of one block into rho[i', j'] of the other (of the
same, with one block); it treats rho[i, j] and rho[j, i] alike, so it keeps
A and B apart.

The state goes from one sample to the next as exp(L Delta) R, summed as
a truncated Taylor series on substeps short enough that ||tau L|| <= 1
(the action of the exponential as in Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)); the positivity check at each sample is one
stacked eigvalsh over the blocks.

The steady state is the null vector of L on the sector (half the unknowns
with two parity blocks: a unique steady state is parity-symmetric (Albert &
Jiang, Phys. Rev. A 89, 022118 (2014))), found by restarted GMRES with the
secular (Pauli) master equation in the eigenbasis of H as preconditioner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .chain import HamiltonianBlocks, MixingAngles, require_real_symmetric
from .pauli import site_bit, z_pattern

_TRACE_ABORT = 1e-6
_POSITIVITY_ABORT = 1e-6
# Largest 1-norm condition number of the bordered Pauli rate matrix of a unique steady state:
# 1.8e16 or more, or singular, on homogeneous dephasing-only chains in the eigenbasis frame
# (N = 2-4, sector and one block); 9.0 to 2.0e3 on the shipped scans and on dephasing-only
# chains with epsilon = 0.05 in either frame.
_CONDITION_LIMIT = 1e10
_RESTART, _GMRES_RTOL, _GMRES_MAX_ITERATIONS = 30, 1e-12, 1000  # of the steady-state GMRES

# scipy is imported where sparse matrices are built: noiseless and MPS runs never load it.
if TYPE_CHECKING:
    import scipy.sparse as sparse


@dataclass(frozen=True)
class NoiseSpec:
    """Phenomenological decay rate Gamma and thermal occupation n_T."""

    gamma: float = 0.0
    n_thermal: float = 0.0

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
        if not 0 <= self.n_thermal < math.inf:
            raise ValueError("n_thermal must be finite and >= 0")


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
        if not all(0 <= v < math.inf for v in self.g_relax + self.g_excite + self.g_dephase):
            raise ValueError("rates must be finite and >= 0")
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
    """Density-matrix snapshots at ascending sample times, plus the trace drift of each."""

    times: np.ndarray
    states: list[np.ndarray]
    trace_drift: np.ndarray


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


def _dissipator(rates: RateSet, stacked: np.ndarray) -> sparse.csr_matrix:
    """Everything but the commutator, as one sparse matrix on the vectorized stack.

    `stacked` holds the basis indices of each block in a row.  Row (b, p, q)
    is the equation for rho[i, j], i = stacked[b, p], j = stacked[b, q].
    Its diagonal entry is the damping: the anticommutator parts of the
    jumps (diagonal operators) plus the full dephasing channel.  It takes
    2 G rho[i', j'] from each site where i and j carry equal bits, with i',
    j' = i, j flipped there: relaxation (G_i) into bits 0, excitation
    (Gt_i) into bits 1; i' and j' again share a block.  The matrix is
    filled row by row in place: this build sets the generator's peak
    memory, and coordinate lists would take more than twice the matrix.
    """
    import scipy.sparse as sparse

    n = rates.n_sites
    n_blocks, m = stacked.shape
    size = n_blocks * m * m
    idx = np.arange(2**n)
    row_of, col_of = np.empty(2**n, dtype=np.intp), np.empty(2**n, dtype=np.intp)
    row_of[stacked], col_of[stacked] = np.arange(n_blocks * m).reshape(n_blocks, m), np.arange(m)

    out_rate = np.zeros(2**n)
    damp = np.zeros((n_blocks, m, m))
    for site in range(1, n + 1):
        bit = site_bit(idx, site, n)
        out_rate += rates.g_relax[site - 1] * bit + rates.g_excite[site - 1] * (1 - bit)
        if rates.g_dephase[site - 1]:
            z = z_pattern(site, n)[stacked]
            damp += 2.0 * rates.g_dephase[site - 1] * (z[:, :, None] * z[:, None, :] - 1.0)
    damp -= out_rate[stacked][:, :, None] + out_rate[stacked][:, None, :]

    def jump_values(site):  # 2 G of each row from this site's jumps, 0 where none
        bit = site_bit(stacked, site, n)
        rate = np.array([2.0 * rates.g_relax[site - 1], 2.0 * rates.g_excite[site - 1]])[bit]
        return np.where(bit[:, :, None] == bit[:, None, :], rate[:, :, None], 0.0).ravel()

    sites = [s for s in range(1, n + 1) if rates.g_relax[s - 1] or rates.g_excite[s - 1]]
    counts = np.ones(size, dtype=np.intp)
    for site in sites:
        counts += jump_values(site) != 0
    indptr = np.concatenate([[0], np.cumsum(counts)])
    del counts
    index = np.int32 if indptr[-1] < 2**31 else np.int64
    indices, data = np.empty(indptr[-1], dtype=index), np.empty(indptr[-1])
    cursor = indptr[:-1].copy()
    indices[cursor], data[cursor] = np.arange(size), damp.ravel()
    cursor += 1
    for site in sites:
        value = jump_values(site)
        on = value != 0
        flipped = stacked ^ (1 << (n - site))
        source = (row_of[flipped][:, :, None] * m + col_of[flipped][:, None, :]).ravel()
        at = cursor[on]
        indices[at], data[at] = source[on], value[on]
        cursor[on] += 1
    return sparse.csr_matrix((data, indices, indptr.astype(index)), shape=(size, size))


class LindbladGenerator:
    """The master-equation right-hand side on the sector of equal-size index blocks.

    `h` is the Hamiltonian as its real diagonal blocks
    (:func:`qubitchain.chain.build_hamiltonian_eigen`; a dense d x d matrix
    is one block, ``[(np.arange(d), h)]``), and the diagonal blocks of rho
    over the same indices are kept.  A state is the stack of its diagonal
    blocks in real form, shaped `shape` = (len(h), m, m); with one block a
    d x d matrix is accepted too.
    """

    def __init__(self, h: HamiltonianBlocks, rates: RateSet):
        import scipy.sparse as sparse

        self.rates = rates
        self.blocks = [b for b, _ in h]
        stacked = np.stack(self.blocks)
        n_blocks, m = stacked.shape
        d = n_blocks * m
        n = int(round(np.log2(d)))
        if 2**n != d:
            raise ValueError("Hamiltonian dimension must be a power of two")
        if rates.n_sites != n:
            raise ValueError(f"rate set has {rates.n_sites} sites, Hamiltonian has {n}")
        if np.sort(stacked, axis=None).tolist() != list(range(d)):
            raise ValueError("blocks must be equal-size and partition the basis indices")
        self.shape = (n_blocks, m, m)

        self._h_parts = [sparse.csr_matrix(require_real_symmetric(part)) for _, part in h]
        self._h = sparse.block_diag(self._h_parts, format="csr")
        self._dissipator = _dissipator(rates, stacked)
        # nu >= ||L||, in the largest entry of R: the commutator takes at
        # most twice the row-sum norm of H, and the dissipator its own
        # row-sum norm, read off without |D| since its diagonal is <= 0 and
        # every other entry >= 0.
        ones = np.ones(self._dissipator.shape[0])
        d_norm = (self._dissipator @ ones - 2.0 * self._dissipator.diagonal()).max()
        self.norm_bound = 2.0 * float(abs(self._h).sum(axis=1).max()) + float(d_norm)

    def _times(self, r: np.ndarray) -> np.ndarray:
        """Each block of the real stack `r` multiplied by its block of H from the left."""
        return (self._h @ r.reshape(-1, self.shape[-1])).reshape(self.shape)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """dR/dt = (H R)^T - H R^T + D R of a (not necessarily normalized)
        state in real form (:func:`real_form`), in the shape given.

        A complex array is refused: it is not a state in real form.
        """
        if np.iscomplexobj(r):
            raise TypeError("apply takes a state in real form (real_form), not a complex array")
        x = np.ascontiguousarray(r, dtype=float).reshape(self.shape)
        out = self._times(np.ascontiguousarray(x.transpose(0, 2, 1)))
        np.subtract(self._times(x).transpose(0, 2, 1), out, out=out)
        out += (self._dissipator @ x.ravel()).reshape(self.shape)
        return out.reshape(r.shape)

    def superoperator(self) -> sparse.csr_matrix:
        """Sparse generator L on the row-major-vectorized stack of rho, which `apply` takes in real form.

        Kronecker form, using vec(A rho B) = (A kron B^T) vec(rho): the
        commutator -i (H_b kron I - I kron H_b^T) of each block, plus the
        dissipator matrix that `apply` uses.
        """
        import scipy.sparse as sparse

        eye = sparse.identity(self.shape[-1], format="csr")
        commutator = sparse.block_diag([sparse.kron(hb, eye) - sparse.kron(eye, hb.T) for hb in self._h_parts])
        return (-1j * commutator + self._dissipator).tocsr()


def block_stack(rho: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """The diagonal blocks rho[b, b], stacked along a new first axis."""
    return np.stack([rho[np.ix_(b, b)] for b in blocks])


def block_matrix(parts, blocks: list[np.ndarray]) -> np.ndarray:
    """The d x d matrix with diagonal blocks `parts` (a stack or a sequence) and zeros between them."""
    d = sum(len(b) for b in blocks)
    out = np.zeros((d, d), dtype=parts[0].dtype)
    for part, b in zip(parts, blocks):
        out[np.ix_(b, b)] = part
    return out


def couples_blocks(rho: np.ndarray, blocks: list[np.ndarray]) -> bool:
    """Whether rho has a nonzero entry between two of `blocks`."""
    return np.count_nonzero(rho) != sum(np.count_nonzero(rho[np.ix_(b, b)]) for b in blocks)


def real_form(rho: np.ndarray) -> np.ndarray:
    """R = A + B of the Hermitian part (rho + rho^dagger) / 2 = A + iB of `rho`, a matrix or a stack of them."""
    h = rho + np.conj(np.swapaxes(rho, -1, -2))
    return 0.5 * (h.real + h.imag)


def density(r: np.ndarray) -> np.ndarray:
    """rho = A + iB of the real form R = A + B, a matrix or a stack: exactly Hermitian for any real R."""
    rt = np.swapaxes(r, -1, -2)
    return 0.5 * (r + rt) + 0.5j * (r - rt)


def _max_part(x: np.ndarray) -> float:
    """The largest entry of the real array `x`, in absolute value, with no temporary."""
    return float(max(x.max(), -x.min()))


def _propagate(gen: LindbladGenerator, r: np.ndarray, delta: float) -> np.ndarray:
    """exp(L delta) R of a state in real form, as a Taylor series on s = ceil(nu delta) substeps of tau = delta / s.

    Since ||tau L|| <= 1 (nu = :attr:`LindbladGenerator.norm_bound`), each
    term (tau L)^k R / k! bounds the rest of its series, so the terms
    are added until one falls below 2^-53 of R, in the largest entry.
    """
    substeps = max(1, math.ceil(gen.norm_bound * delta))
    tau = delta / substeps
    for _ in range(substeps):
        floor = 2.0**-53 * _max_part(r)
        term, k = r, 0
        r = r.copy()
        while True:
            k += 1
            term = gen.apply(term)
            term *= tau / k
            r += term
            if _max_part(term) <= floor:
                break
    return r


def stream(
    rho0: np.ndarray, h: HamiltonianBlocks, rates: RateSet, times: np.ndarray
) -> Iterator[tuple[float, np.ndarray, float]]:
    """Propagate the master equation on the sector of the blocks of `h`,
    yielding a snapshot at each of the ascending sample `times`.

    `rho0` is the state at times[0] as a stack of diagonal blocks
    (:func:`block_stack`; with one block of every index, the d x d matrix
    under a leading axis of one).  Yields (t, R, trace drift) at each time,
    R the snapshot's blocks in real form (:func:`density` gives rho).  From
    one sample to the next the state is advanced by exp(L Delta)
    (:func:`_propagate`), with no step of its own, so the samples at
    `times` do not depend on any later time.  Only the current state, the
    next one and one Taylor term are held, and a yielded array is never
    written to again.
    The start is Hermitized by :func:`real_form` (a thermal one comes from
    a GEMM).  Snapshots are trace-renormalized;
    the drift corrected at each is yielded with it.  Cumulative trace drift
    beyond 1e-6 or a snapshot eigenvalue below -1e-6 (one stacked eigvalsh
    over the blocks) aborts with a diagnostic, since either indicates a
    broken integration rather than roundoff.
    """
    gen = LindbladGenerator(h, rates)
    if rho0.shape != gen.shape:
        raise ValueError(f"initial state has shape {rho0.shape}, the sector {gen.shape}")
    times = np.asarray(times, dtype=float)
    if not np.all(np.diff(times) > 0):
        raise ValueError("sample times must ascend strictly")

    r = real_form(rho0)
    del rho0
    yield float(times[0]), r, abs(_trace(r) - 1.0)
    cumulative_trace = 0.0
    for before, t in zip(times, times[1:]):
        r = _propagate(gen, r, t - before)
        tr = _trace(r)
        drift = abs(tr - 1.0)
        cumulative_trace += drift
        if cumulative_trace > _TRACE_ABORT:
            raise RuntimeError(f"cumulative trace drift {cumulative_trace:.3e} exceeds {_TRACE_ABORT} at t={t:.3f}")
        r /= tr
        min_eig = float(np.linalg.eigvalsh(density(r))[:, 0].min())
        if min_eig < -_POSITIVITY_ABORT:
            raise RuntimeError(f"positivity violated (min eigenvalue {min_eig:.3e}) at t={t:.3f}")
        yield float(t), r, drift


def sample_grid(t_max: float, dt: float, sample_every: int) -> np.ndarray:
    """Sample times of every propagation path: every sample_every steps of dt, and the last step."""
    if dt <= 0 or sample_every < 1:
        raise ValueError("dt must be > 0 and sample_every >= 1")
    n_steps = int(round(t_max / dt))
    return np.array([k * dt for k in [*range(0, n_steps, sample_every), n_steps]])


def _trace(r: np.ndarray) -> float:
    """Trace of the block-diagonal matrix whose diagonal blocks are stacked in `r`."""
    return float(np.trace(r, axis1=-2, axis2=-1).sum())


def evolve(
    rho0: np.ndarray,
    h: HamiltonianBlocks,
    rates: RateSet,
    t_max: float,
    dt: float,
    sample_every: int = 10,
) -> Trajectory:
    """Every snapshot of :func:`stream` from the d x d matrix `rho0` at the
    times of :func:`sample_grid`, collected; the blocks of `h` are merged
    and run as one block of every index."""
    indices, parts = zip(*h)
    whole = block_matrix(parts, indices)
    samples = stream(rho0[None], [(np.arange(len(whole)), whole)], rates, sample_grid(t_max, dt, sample_every))
    times, states, trace_drift = zip(*((t, density(r[0]), drift) for t, r, drift in samples))
    return Trajectory(np.asarray(times), list(states), np.asarray(trace_drift))


def _secular_inverse(h: HamiltonianBlocks, gen: LindbladGenerator):
    """M^-1 for the secular part M of A x = L x + w tr x, w = I/d, and the
    1-norm condition number of M's bordered rate matrix.

    In the eigenbasis of each block of H (H_b = V E V^T), M scales each
    coherence x_ab by -i (E_a - E_b) + ((V*V)^T D (V*V))_ab, D the
    dissipator's diagonal, and takes the populations through W + 1 1^T / d,
    W the rate matrix of the secular (Pauli) master equation (Breuer &
    Petruccione, 2002): k |V^T J V|^2 from each jump J of weight k (2 G, 2 Gt, 2 g).
    """
    e, v = map(np.stack, zip(*(np.linalg.eigh(require_real_symmetric(part)) for _, part in h)))
    vt = v.transpose(0, 2, 1)
    rates, stacked, (n_blocks, m, _) = gen.rates, np.stack(gen.blocks), gen.shape
    n = rates.n_sites
    where = np.argsort(stacked, axis=None)  # basis index -> its row b * m + p of the stacked blocks
    pauli = np.zeros((n_blocks, m, n_blocks, m))  # W off its diagonal, one jump at a time
    for i, b in np.ndindex(n, n_blocks):  # site i + 1
        z, flipped = z_pattern(i + 1, n)[stacked[b]], where[stacked[b] ^ (1 << (n - 1 - i))]
        source, gathered = flipped[0] // m, v.reshape(-1, m)[flipped]
        for k, c, jump in (
            (rates.g_relax[i], source, vt[b][:, z > 0] @ gathered[z > 0]),
            (rates.g_excite[i], source, vt[b][:, z < 0] @ gathered[z < 0]),
            (rates.g_dephase[i], b, vt[b] @ (z[:, None] * v[b])),
        ):
            pauli[b, :, c] += 2.0 * k * jump**2
    pauli = pauli.reshape(n_blocks * m, -1)
    pauli[np.diag_indices_from(pauli)] -= pauli.sum(axis=0)
    pauli += 1.0 / (n_blocks * m)
    try:
        populations = np.linalg.inv(pauli)
    except np.linalg.LinAlgError:
        return None, math.inf
    square, damping = v**2, gen._dissipator.diagonal().reshape(gen.shape)
    scale = -1j * (e[:, :, None] - e[:, None, :]) + square.transpose(0, 2, 1) @ damping @ square
    scale = 1.0 / np.where(scale == 0, 1.0, scale)  # a coherence that M keeps fixed passes unscaled
    sigma, kappa = scale.real, scale.imag  # x_ab -> scale_ab x_ab, in real form

    def precondition(y):
        t = vt @ y @ v
        diagonal = populations @ np.diagonal(t, axis1=1, axis2=2).ravel()
        t = sigma * t + kappa * t.transpose(0, 2, 1)
        t.reshape(n_blocks, -1)[:, :: m + 1] = diagonal.reshape(n_blocks, m)
        return v @ t @ vt

    return precondition, float(np.abs(pauli).sum(axis=0).max() * np.abs(populations).sum(axis=0).max())


def _gmres(operator, precondition, w: np.ndarray) -> tuple[np.ndarray, bool]:
    """x with ||w - A x|| <= _GMRES_RTOL ||w||, and whether it got there within _GMRES_MAX_ITERATIONS.

    Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 856 (1986)) on states in
    real form, whose Frobenius inner products are those of rho (A and B are orthogonal),
    right-preconditioned by the fixed M^-1 that `precondition` applies, so only the Krylov
    basis Q is stored: x = M^-1 (Q y).
    """
    target = _GMRES_RTOL * float(np.linalg.norm(w))
    x, iterations = np.zeros_like(w), 0
    basis = np.empty((_RESTART + 1, w.size))
    while True:
        basis[0] = (w - operator(x)).ravel()
        beta = float(np.linalg.norm(basis[0]))
        if beta <= target or iterations >= _GMRES_MAX_ITERATIONS:
            return x, beta <= target
        basis[0] /= beta
        hess, g = np.zeros((_RESTART + 1, _RESTART)), beta * np.eye(_RESTART + 1)[0]
        for j in range(_RESTART):
            q = operator(precondition(basis[j].reshape(w.shape))).ravel()
            for _ in range(2):  # classical Gram-Schmidt, twice
                coefficients = basis[: j + 1] @ q
                q -= coefficients @ basis[: j + 1]
                hess[: j + 1, j] += coefficients
            hess[j + 1, j] = np.linalg.norm(q)
            basis[j + 1] = q / (hess[j + 1, j] or 1.0)
            y = np.linalg.lstsq(hess[: j + 2, : j + 1], g[: j + 2], rcond=None)[0]
            iterations += 1
            residual = np.linalg.norm(hess[: j + 2, : j + 1] @ y - g[: j + 2])
            if residual <= target or iterations >= _GMRES_MAX_ITERATIONS:
                break
        x += precondition((y @ basis[: j + 1]).reshape(w.shape))


def steady_state(h: HamiltonianBlocks, rates: RateSet, tol: float = 1e-8) -> SteadyStateResult:
    """Null vector of the Liouvillian on the sector of the blocks of `h`, certified by its residual.

    Solves L x + w tr x = w, w = I/d, whose solution is the steady state, on
    the stacked diagonal blocks of rho (the parity blocks of an epsilon_i = 0
    chain halve the unknowns), in real form, by :func:`_gmres` with
    :func:`_secular_inverse`.  It is trace-normalized, returned as the
    d x d matrix (:func:`density`), and certified
    (converged=True) when GMRES stopped before its cap and
    ||drho/dt||_F / ||rho||_F < tol.

    Requires a unique steady state, which every site's relaxation channel
    gives (`rates_from_angles` with Gamma > 0: delta_i > 0, so
    sin^2(theta_i) > 0).  A degenerate kernel (e.g. pure dephasing of a
    homogeneous chain in the eigenbasis frame, whose identity on each parity
    sector is stationary), like rates below about 1e-10, leaves the bordered
    Pauli rate matrix singular or with a condition number above
    _CONDITION_LIMIT and raises ValueError before any iteration; so does a
    state with an eigenvalue below -1e-6.
    """
    if rates.is_zero():
        raise ValueError("steady_state requires a dissipative channel (all rates are zero)")
    gen = LindbladGenerator(h, rates)
    precondition, condition = _secular_inverse(h, gen)
    if condition > _CONDITION_LIMIT:
        raise ValueError(
            f"bordered Pauli rate matrix has condition number {condition:.1e}; "
            "the steady state is not unique (does every site have a relaxation channel?)"
        )
    w = block_stack(np.eye(2**rates.n_sites) / 2**rates.n_sites, gen.blocks)
    r, reached = _gmres(lambda x: gen.apply(x) + _trace(x) * w, precondition, w)
    r /= _trace(r)
    min_eig = float(np.linalg.eigvalsh(density(r))[:, 0].min())
    if min_eig < -_POSITIVITY_ABORT:
        raise ValueError(
            f"steady-state solve returned a non-positive state (min eigenvalue {min_eig:.3e}); "
            "the steady state is likely not unique (does every site have a relaxation channel?)"
        )
    residual = float(np.linalg.norm(gen.apply(r))) / max(float(np.linalg.norm(r)), 1e-300)
    return SteadyStateResult(block_matrix(density(r), gen.blocks), reached and residual < tol, 0.0, residual)
