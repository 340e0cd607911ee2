"""Matrix-product representation of density matrices and a TEBD evolver.

A chain density matrix is expanded in the orthonormal Hermitian basis of
per-site Pauli matrices (Zwolak & Vidal, PRL 93, 207205 (2004))

    p1 = I/sqrt2, p2 = X/sqrt2, p3 = Y/sqrt2, p4 = Z/sqrt2,

so each site carries a physical index s in {1..4} and

    rho = sum_s  c(s_1..s_N)  p_{s_1} x ... x p_{s_N},

with the coefficients c given by a matrix product of real site tensors.  A
Hermitian rho has real coefficients, and every generator here preserves
Hermiticity, so tensors, gates and bond SVDs are all float64.  The basis
change is a local unitary on each physical index, so bond singular values
and truncation match those of the matrix-unit expansion.  The tensors are
stored with the bond weights absorbed to the right (the "B-form" of
pure-state TEBD), so c(s_1..s_N) = T_1^{s_1} T_2^{s_2} ... and the stored
bond-weight vectors act only as relative environment weights for
truncation; for mixed states they are not Schmidt coefficients.

Time evolution Trotterizes the master equation of :mod:`qubitchain.lindblad`
into two-site gates.  Each bond has one real 16 x 16 generator: the
two-site master equation of the bond coupling and the splittings and jumps
of its two sites, applied to the 16 Pauli strings and read back in the
Pauli basis.  Each single-site term is shared half and half between the
two bonds of an interior site and given whole to the one bond of a
boundary site, so the generators sum to the chain's.  The gates are its
exponentials, computed by numpy scaling and squaring of the
[13/13] Pade approximant, exact to roundoff.  Every step is the symmetric
triple concatenation of second-order sweeps with a negative middle
coefficient,

    S4(dt) = S2(c dt) S2((1 - 2c) dt) S2(c dt),   c = 1/(2 - 2**(1/3)),

which is fourth order in dt; S2 is the sweep even, odd, even with half
steps on the even bonds.  Steps taken in one call fuse the closing even
sweep of each step with the opening one of the next.  Bonds keep at most
`bond_dim` singular values and never split a multiplet of equal ones; a
step that discards more than `TRUNCATION_CEILING` of the relative weight
is counted as flagged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, mixing_angles
from .lindblad import RateSet
from .negativity import ReducedState
from .pauli import ID2, SM, SP, SX, SZ, pauli_strings

logger = logging.getLogger(__name__)

TRUNCATION_CEILING = 1e-6  # discarded weight above which a step is flagged
_DRIFT_LIMIT = 1e-4  # Hermiticity or trace correction of a reduced state that is warned about
_SV_FLOOR = 1e-14  # relative floor below which singular values are dropped
_IMAG_LIMIT = 1e-12  # largest imaginary part a bond generator may drop
_MULTIPLET_TOL = 1e-12  # of the largest singular value; SVD roundoff splits equal values by ~1e-15 of it

_YOSHIDA_C1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))


@dataclass
class MpsMixedState:
    """Matrix-product density matrix: site tensors (Dl, 4, Dr) plus bond weights."""

    tensors: list[np.ndarray]
    bond_weights: list[np.ndarray]

    def __post_init__(self):
        if len(self.bond_weights) != max(self.n_sites - 1, 0):
            raise ValueError("one bond-weight vector per bond required")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise ValueError("boundary tensors must have trivial outer bonds")
        for j, t in enumerate(self.tensors):
            if t.ndim != 3 or t.shape[1] != 4:
                raise ValueError(f"tensor {j} must have shape (Dl, 4, Dr)")
        for j, w in enumerate(self.bond_weights):
            if np.any(w < 0) or np.any(np.diff(w) > 1e-14):
                raise ValueError(f"bond weights {j} must be non-negative and descending")

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    def bond_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[2] for t in self.tensors[:-1])


def validate_local_state(rho: np.ndarray) -> None:
    if rho.shape != (2, 2):
        raise ValueError("local states must be 2x2")
    if np.abs(rho - rho.conj().T).max() > 1e-12:
        raise ValueError("local state is not Hermitian")
    if abs(complex(np.trace(rho)) - 1.0) > 1e-10:
        raise ValueError("local state must have unit trace")
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-9:
        raise ValueError("local state is not positive")


def _dense_from_coefficients(coeff: np.ndarray, m: int) -> np.ndarray:
    """2^m x 2^m matrix of the real Pauli coefficients `coeff` (length 4^m, site-major) on m sites."""
    return np.tensordot(coeff, pauli_strings(m), axes=1) / 2.0 ** (m / 2)


def mps_from_product(local_states: list[np.ndarray]) -> MpsMixedState:
    """Bond-dimension-1 representation of a product of single-site states.

    Each site tensor holds the Pauli coefficients tr(P rho)/sqrt2 of its
    state.  Their imaginary parts come only from the anti-Hermitian part of
    rho, which `validate_local_state` bounds by 1e-12, and are dropped.
    """
    n = len(local_states)
    if n < 2:
        raise ValueError("at least two sites required")
    tensors = []
    for rho in local_states:
        rho = np.asarray(rho, dtype=complex)
        validate_local_state(rho)
        tensors.append(np.trace(pauli_strings(1) @ rho, axis1=1, axis2=2).real.reshape(1, 4, 1) / math.sqrt(2.0))
    weights = [np.ones(1) for _ in range(n - 1)]
    return MpsMixedState(tensors, weights)


def mps_trace(state: MpsMixedState) -> float:
    """Full trace: tr(I/sqrt2) = sqrt2 times each site's identity coefficient, the other strings are traceless."""
    v = np.ones(1)
    for t in state.tensors:
        v = v @ (math.sqrt(2.0) * t[:, 0, :])
    return float(v[0])


def reduced_sites_dm(state: MpsMixedState, sites) -> ReducedState:
    """Reduced density matrix on 1 to 4 sites (1-based, strictly increasing).

    All other sites are traced as in :func:`mps_trace` and only
    the retained sites are converted back to matrix units; the result is
    re-Hermitized and renormalized, and the correction applied is logged
    (warned about above `_DRIFT_LIMIT`).
    """
    kept = tuple(int(s) for s in sites)
    n = state.n_sites
    if not 1 <= len(kept) <= 4:
        raise ValueError("between 1 and 4 sites can be retained")
    if any(b <= a for a, b in zip(kept, kept[1:])) or not all(1 <= s <= n for s in kept):
        raise ValueError(f"sites must be strictly increasing within [1, {n}]")
    keep_set = set(kept)
    # acc[(s_i1..s_ik), D]: sweep left to right, keeping physical indices of
    # retained sites and tracing the rest.
    acc = np.ones((1, 1))
    for k in range(n):
        if (k + 1) in keep_set:
            nxt = np.tensordot(acc, state.tensors[k], axes=(1, 0))  # (phys, 4, Dr)
            acc = nxt.reshape(acc.shape[0] * 4, -1)
        else:
            acc = acc @ (math.sqrt(2.0) * state.tensors[k][:, 0, :])
    mat = _dense_from_coefficients(acc[:, 0], len(kept))
    herm = float(np.abs(mat - mat.conj().T).max())
    mat = 0.5 * (mat + mat.conj().T)
    tr = float(np.trace(mat).real)
    drift = max(herm, abs(tr - 1.0))
    if drift > _DRIFT_LIMIT:
        logger.warning("reduced sites %s drift %.3e exceeds %.1e", kept, drift, _DRIFT_LIMIT)
    if tr <= 0:
        raise RuntimeError(f"reduced state on {kept} has non-positive trace {tr:.3e}")
    return ReducedState(kept, np.ascontiguousarray(mat / tr))


def reduced_pair_dm(state: MpsMixedState, i: int, j: int) -> ReducedState:
    """Reduced density matrix of the pair (i, j), i < j, both 1-based."""
    if not 1 <= i < j <= state.n_sites:
        raise ValueError(f"need 1 <= i < j <= {state.n_sites}")
    return reduced_sites_dm(state, (i, j))


# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, divided by
# b_0 so that the zero matrix maps exactly to the identity, and the 1-norm up
# to which it is exact to double roundoff without scaling (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE13 = tuple(
    c / 64764752532480000.0
    for c in (
        64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
        129060195264000, 10559470521600, 670442572800, 33522128640,
        1323241920, 40840800, 960960, 16380, 182, 1,
    )
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each real square matrix of the stack `a` (..., n, n).

    Scaling and squaring: each matrix is divided by the power of two 2^s
    that brings its 1-norm to at most `_THETA13`, the [13/13] Pade
    approximant is evaluated in six products and one solve, and the result
    is squared s times.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norms, _THETA13) / _THETA13)).astype(int)
    x = np.ldexp(a, -s[..., None, None])
    b = _PADE13
    eye = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


def _svd_safe(matrix: np.ndarray):
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg

        return scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")


def _bond_shares(n: int, b: int) -> tuple[float, float]:
    """Shares of its left and right site's single-site terms that bond b carries.

    An interior site's terms are shared half-and-half between its two
    bonds; a boundary site gives its full weight to its only bond.
    """
    return (1.0 if b == 0 else 0.5), (1.0 if b == n - 2 else 0.5)


def bond_generators(spec: ChainSpec, rates: RateSet) -> list[np.ndarray]:
    """Real 16x16 Lindblad generators of the bonds, Pauli basis, indexed site-major.

    Generator b maps the 16 strings P_l of `pauli_strings(2)` through the
    bond's master equation L_b and reads back tr(P_k L_b(P_l))/4.  L_b is
    -i[h_b, .] with the bond coupling and the two sites' splittings, plus
    the jumps sqrt(2 w G) s+, sqrt(2 w Gt) s- and sqrt(2 w g) sz on each
    site, where w are the site's shares from `_bond_shares`.
    """
    n = spec.n_qubits
    angles = mixing_angles(spec)
    strings = pauli_strings(2)
    embed = (lambda op: np.kron(op, ID2), lambda op: np.kron(ID2, op))
    out = []
    for b in range(n - 1):
        sites = (b, b + 1)
        axes = [math.cos(angles.theta[i]) * SZ + math.sin(angles.theta[i]) * SX for i in sites]
        h = -0.5 * spec.coupling[b] * np.kron(*axes)
        images = np.zeros_like(strings)
        for i, w, on in zip(sites, _bond_shares(n, b), embed):
            h -= 0.5 * w * angles.omega[i] * on(SZ)
            for rate, op in ((rates.g_relax[i], SP), (rates.g_excite[i], SM), (rates.g_dephase[i], SZ)):
                jump = math.sqrt(2.0 * w * rate) * on(op)
                decay = jump.conj().T @ jump
                images += jump @ strings @ jump.conj().T - 0.5 * (decay @ strings + strings @ decay)
        images -= 1j * (h @ strings - strings @ h)
        gen = np.einsum("kab,lba->kl", strings, images) / 4.0
        imag = float(np.abs(gen.imag).max())
        if imag > _IMAG_LIMIT:
            raise RuntimeError(f"generator of bond {b} has imaginary part {imag:.3e} in the Pauli basis")
        out.append(np.ascontiguousarray(gen.real))
    return out


def _fourth_order_stages(dt: float) -> list[tuple[str, float]]:
    """(family, time step) of each half-sweep of S4(dt), adjacent half-sweeps of one family merged.

    The family is "even" or "odd", the bonds whose gates the half-sweep
    applies; the stages alternate E O E O E O E, and the time steps of
    each family sum to dt.
    """
    c1 = _YOSHIDA_C1
    merged: list[list] = []
    for c in (c1, 1.0 - 2.0 * c1, c1):
        for family, share in (("even", 0.5), ("odd", 1.0), ("even", 0.5)):
            if merged and merged[-1][0] == family:
                merged[-1][1] += share * c
            else:
                merged.append([family, share * c])
    return [(family, c * dt) for family, c in merged]


def _multiplet_cut(s: np.ndarray, cap: int) -> int:
    """`cap` moved down to the nearest gap in the descending `s`; `cap` if s[0]'s multiplet reaches past it."""
    gaps = np.flatnonzero(s[:cap] - s[1 : cap + 1] > _MULTIPLET_TOL * s[0])
    return int(gaps[-1]) + 1 if gaps.size else cap


class MixedTebdEngine:
    """Applies fourth-order Trotter steps of `dt` to an MpsMixedState, truncating to `bond_dim`.

    Gates are exponentiated once at construction, one batch per sweep by
    numpy scaling and squaring (`_expm`, exact to roundoff), for every
    stage and for the even sweep that fuses the end of one step with the
    start of the next.  The engine accumulates the relative singular-value weight
    discarded by truncation and the trace drift corrected at each step;
    steps whose discarded weight exceeds `TRUNCATION_CEILING` are counted
    in `flagged_steps` (the harness reports the count as one manifest flag).
    """

    def __init__(self, spec: ChainSpec, rates: RateSet, dt: float, bond_dim: int):
        n = spec.n_qubits
        if rates.n_sites != n:
            raise ValueError("rate set and chain size differ")
        if dt <= 0:
            raise ValueError("dt must be > 0")
        self.n_sites = n
        self.dt = dt
        self.bond_dim = bond_dim
        self.truncation_weight = 0.0
        self.trace_drift_total = 0.0
        self.flagged_steps = 0
        self.step_count = 0

        generators = np.stack(bond_generators(spec, rates))
        bonds = {"even": range(0, n - 1, 2), "odd": range(1, n - 1, 2)}

        def sweep(family: str, tau: float) -> dict[int, np.ndarray]:
            return dict(zip(bonds[family], _expm(tau * generators[bonds[family]])))

        stages = _fourth_order_stages(dt)
        self._stage_ops = [(family, sweep(family, tau)) for family, tau in stages]
        # e^{aL} e^{aL} = e^{2aL} on each even bond, and the even gates commute.
        self._fused_even = sweep("even", stages[-1][1] + stages[0][1])

    def step(self, state: MpsMixedState, count: int = 1) -> MpsMixedState:
        """`count` composite Trotter steps into a new state; `state` is unchanged (stages only rebind arrays).

        The closing even sweep of each step but the last runs fused with
        the opening even sweep of the next, and its discarded weight counts
        towards the earlier step.  Each step is then trace-normalized,
        counted and flagged on its own.
        """
        if state.n_sites != self.n_sites:
            raise ValueError("state size does not match engine")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        work = MpsMixedState(list(state.tensors), list(state.bond_weights))
        sweeps = [gates for _, gates in self._stage_ops]
        for k in range(count):
            closing = sweeps[-1] if k == count - 1 else self._fused_even
            step_weight = 0.0
            for gates in [*sweeps[(1 if k else 0) : -1], closing]:
                for b, gate in gates.items():
                    step_weight += self._apply_bond_gate(work, b, gate)
            trace = mps_trace(work)
            if trace <= 0:
                raise RuntimeError(f"state trace collapsed to {trace:.3e} at step {self.step_count + 1}")
            drift = abs(trace - 1.0)
            self.trace_drift_total += drift
            work.tensors[-1] = work.tensors[-1] / trace
            self.truncation_weight += step_weight
            self.step_count += 1
            if step_weight > TRUNCATION_CEILING:
                self.flagged_steps += 1
        return work

    def _apply_bond_gate(self, state: MpsMixedState, b: int, gate: np.ndarray) -> float:
        """Apply one two-site gate at bond b (0-based) with SVD truncation."""
        t_left = state.tensors[b]
        t_right = state.tensors[b + 1]
        dl = t_left.shape[0]
        dr = t_right.shape[2]
        lam_left = state.bond_weights[b - 1] if b > 0 else np.ones(1)

        pair = t_left.reshape(dl * 4, -1) @ t_right.reshape(-1, 4 * dr)
        theta_bare = np.matmul(gate, pair.reshape(dl, 16, dr))  # (dl, s s', dr)
        theta = lam_left[:, None, None] * theta_bare

        u, s, vh = _svd_safe(theta.reshape(dl * 4, 4 * dr))
        total = float((s**2).sum())
        if total <= 0:
            raise RuntimeError(f"bond {b} collapsed to zero weight")
        keep = int((s > s[0] * _SV_FLOOR).sum())
        if keep > self.bond_dim:
            keep = _multiplet_cut(s, max(self.bond_dim, 1))
        discarded = float((s[keep:] ** 2).sum()) / total

        vh = vh[:keep]
        norm = float(np.linalg.norm(s[:keep]))
        state.bond_weights[b] = s[:keep] / norm
        state.tensors[b + 1] = vh.reshape(keep, 4, dr)
        # Hastings update: contract the un-weighted theta with the new right
        # tensor instead of dividing by lam_left.
        state.tensors[b] = (theta_bare.reshape(dl * 4, 4 * dr) @ vh.T).reshape(dl, 4, keep)
        return discarded
