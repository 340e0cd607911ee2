"""Matrix-product representation of density matrices and a TEBD evolver.

A chain density matrix is expanded in the basis of per-site matrix units

    e1 = |0><0|, e2 = |0><1|, e3 = |1><0|, e4 = |1><1|,

so each site carries a physical index s in {1..4} and

    rho = sum_s  c(s_1..s_N)  e_{s_1} x ... x e_{s_N},

with the coefficients c given by a matrix product of site tensors.  The
tensors are stored with the bond weights absorbed to the right (the
"B-form" of pure-state TEBD), so c(s_1..s_N) = T_1^{s_1} T_2^{s_2} ... and
the stored bond-weight vectors act only as relative environment weights for
truncation; for mixed states they are not Schmidt coefficients.

Time evolution Trotterizes the master equation of :mod:`qubitchain.lindblad`
into two-site coherent gates (bond Hamiltonians, single-site splittings
split onto adjacent bonds) and single-site dissipative stages, each
exponentiated exactly on its 16- or 4-dimensional local operator space.
The default composition is the symmetric triple concatenation of
second-order sweeps with a negative middle coefficient,

    S4(dt) = S2(c dt) S2((1 - 2c) dt) S2(c dt),   c = 1/(2 - 2**(1/3)),

which is fourth order in dt.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .chain import ChainSpec, mixing_angles
from .lindblad import RateSet
from .negativity import ReducedState
from .pauli import ID2, SM, SP, SX, SZ

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "qubitchain-mps-mixed/1"

DEFAULT_TRUNCATION_CEILING = 1e-6
_SV_FLOOR = 1e-14  # relative floor below which singular values are dropped

# Trace functional on the physical index: tr(e1) = tr(e4) = 1.
_TRACE_VEC = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)

_YOSHIDA_C1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))


@dataclass
class MpsMixedState:
    """Matrix-product density matrix: site tensors (Dl, 4, Dr) plus bond weights."""

    n_sites: int
    tensors: list[np.ndarray]
    bond_weights: list[np.ndarray]
    bond_dim: int

    def __post_init__(self):
        if len(self.tensors) != self.n_sites:
            raise ValueError("one tensor per site required")
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

    def copy(self) -> "MpsMixedState":
        return MpsMixedState(
            self.n_sites,
            [t.copy() for t in self.tensors],
            [w.copy() for w in self.bond_weights],
            self.bond_dim,
        )

    def bond_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[2] for t in self.tensors[:-1])


@dataclass(frozen=True)
class TrotterPlan:
    """Stage sequence of one composite time step.

    `stages` is a list of (family, coefficient) pairs with family one of
    "even", "odd" (two-site coherent half-sweeps) or "dissipative"
    (single-site stage); coefficients of each family sum to 1.
    """

    dt: float
    order: int
    stages: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        for family in ("even", "odd", "dissipative"):
            total = sum(c for f, c in self.stages if f == family)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"{family} coefficients sum to {total}, expected 1")

    @classmethod
    def build(cls, dt: float, order: int = 4) -> "TrotterPlan":
        """Symmetric order-2 sweep, or the order-4 triple concatenation."""
        if order == 2:
            coeffs = [1.0]
        elif order == 4:
            c1 = _YOSHIDA_C1
            coeffs = [c1, 1.0 - 2.0 * c1, c1]
        else:
            raise ValueError("order must be 2 or 4")
        stages: list[tuple[str, float]] = []
        for c in coeffs:
            stages += [
                ("even", 0.5 * c),
                ("odd", 0.5 * c),
                ("dissipative", c),
                ("odd", 0.5 * c),
                ("even", 0.5 * c),
            ]
        # Merge adjacent stages of the same family (boundaries of the S2 blocks).
        merged: list[tuple[str, float]] = []
        for family, c in stages:
            if merged and merged[-1][0] == family:
                merged[-1] = (family, merged[-1][1] + c)
            else:
                merged.append((family, c))
        return cls(dt, order, tuple(merged))


def validate_local_state(rho: np.ndarray) -> None:
    if rho.shape != (2, 2):
        raise ValueError("local states must be 2x2")
    if np.abs(rho - rho.conj().T).max() > 1e-12:
        raise ValueError("local state is not Hermitian")
    if abs(complex(np.trace(rho)) - 1.0) > 1e-10:
        raise ValueError("local state must have unit trace")
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-9:
        raise ValueError("local state is not positive")


def mps_from_product(local_states: list[np.ndarray], bond_dim: int = 1) -> MpsMixedState:
    """Bond-dimension-1 representation of a product of single-site states.

    The four matrix-unit coefficients of a 2x2 matrix are just its entries
    in row-major order, so each site tensor is that flattened matrix.
    """
    n = len(local_states)
    if n < 2:
        raise ValueError("at least two sites required")
    tensors = []
    for rho in local_states:
        validate_local_state(np.asarray(rho, dtype=complex))
        tensors.append(np.asarray(rho, dtype=complex).reshape(1, 4, 1))
    weights = [np.ones(1) for _ in range(n - 1)]
    return MpsMixedState(n, tensors, weights, max(bond_dim, 1))


def mps_trace(state: MpsMixedState) -> float:
    """Full trace via the per-site trace functional."""
    v = np.ones((1,), dtype=complex)
    for t in state.tensors:
        v = v @ np.tensordot(_TRACE_VEC, t, axes=(0, 1))
    value = complex(v[0])
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        logger.warning("mps_trace has imaginary part %.3e", value.imag)
    return float(value.real)


def _transfer_matrices(state: MpsMixedState) -> list[np.ndarray]:
    return [np.tensordot(_TRACE_VEC, t, axes=(0, 1)) for t in state.tensors]


def reduced_sites_dm(state: MpsMixedState, sites, drift_limit: float = 1e-4) -> ReducedState:
    """Reduced density matrix on 1 to 4 sites (1-based, strictly increasing).

    All other sites are contracted against the trace functional; the result
    is re-Hermitized and renormalized, and the correction applied is logged
    (warned about above `drift_limit`).
    """
    kept = tuple(int(s) for s in sites)
    n = state.n_sites
    if not 1 <= len(kept) <= 4:
        raise ValueError("between 1 and 4 sites can be retained")
    if any(b <= a for a, b in zip(kept, kept[1:])) or not all(1 <= s <= n for s in kept):
        raise ValueError(f"sites must be strictly increasing within [1, {n}]")
    transfer = _transfer_matrices(state)
    keep_set = set(kept)
    # acc[(s_i1..s_ik), D]: sweep left to right, keeping physical indices of
    # retained sites and tracing the rest.
    acc = np.ones((1, 1), dtype=complex)
    for k in range(n):
        if (k + 1) in keep_set:
            nxt = np.tensordot(acc, state.tensors[k], axes=(1, 0))  # (phys, 4, Dr)
            acc = nxt.reshape(acc.shape[0] * 4, -1)
        else:
            acc = acc @ transfer[k]
    coeff = acc[:, 0].reshape((2, 2) * len(kept))
    m = len(kept)
    rows = tuple(range(0, 2 * m, 2))
    cols = tuple(range(1, 2 * m, 2))
    mat = coeff.transpose(rows + cols).reshape(2**m, 2**m)
    herm = float(np.abs(mat - mat.conj().T).max())
    mat = 0.5 * (mat + mat.conj().T)
    tr = float(np.trace(mat).real)
    drift = max(herm, abs(tr - 1.0))
    if drift > drift_limit:
        logger.warning("reduced sites %s drift %.3e exceeds %.1e", kept, drift, drift_limit)
    if tr <= 0:
        raise RuntimeError(f"reduced state on {kept} has non-positive trace {tr:.3e}")
    return ReducedState(kept, np.ascontiguousarray(mat / tr))


def reduced_pair_dm(state: MpsMixedState, i: int, j: int, drift_limit: float = 1e-4) -> ReducedState:
    """Reduced density matrix of the pair (i, j), i < j, both 1-based."""
    if not 1 <= i < j <= state.n_sites:
        raise ValueError(f"need 1 <= i < j <= {state.n_sites}")
    return reduced_sites_dm(state, (i, j), drift_limit)


def mps_to_dense(state: MpsMixedState) -> np.ndarray:
    """Reconstruct the full density matrix (refused above 8 sites)."""
    n = state.n_sites
    if n > 8:
        raise ValueError("dense reconstruction refused above 8 sites")
    coeff = np.ones((1, 1), dtype=complex)  # (flattened physical, bond)
    for t in state.tensors:
        coeff = np.tensordot(coeff, t, axes=(1, 0)).reshape(coeff.shape[0] * 4, t.shape[2])
    coeff = coeff[:, 0].reshape((2,) * (2 * n))
    rows = tuple(range(0, 2 * n, 2))
    cols = tuple(range(1, 2 * n, 2))
    return coeff.transpose(rows + cols).reshape(2**n, 2**n)


def _svd_safe(matrix: np.ndarray):
    try:
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        import scipy.linalg

        return scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")


def bond_hamiltonians(spec: ChainSpec) -> list[np.ndarray]:
    """Two-site Hamiltonians of the eigenbasis frame, one per bond.

    Single-site splitting terms are shared half-and-half between the two
    bonds adjacent to each interior site; boundary sites give their full
    weight to their only bond.
    """
    n = spec.n_qubits
    angles = mixing_angles(spec)
    out = []
    for b in range(n - 1):
        w_left = 1.0 if b == 0 else 0.5
        w_right = 1.0 if b == n - 2 else 0.5
        ci, si = math.cos(angles.theta[b]), math.sin(angles.theta[b])
        cj, sj = math.cos(angles.theta[b + 1]), math.sin(angles.theta[b + 1])
        op_i = ci * SZ + si * SX
        op_j = cj * SZ + sj * SX
        h = (
            -0.5 * w_left * angles.omega[b] * np.kron(SZ, ID2)
            - 0.5 * w_right * angles.omega[b + 1] * np.kron(ID2, SZ)
            - 0.5 * spec.coupling[b] * np.kron(op_i, op_j)
        )
        out.append(h)
    return out


def _coherent_gate(h_bond: np.ndarray, tau: float) -> np.ndarray:
    """Superoperator of rho -> U rho U^dag on two sites, indexed site-major."""
    u = expm(-1j * tau * h_bond)
    m = np.kron(u, u.conj())  # row-major vec: indices (a_i a_j b_i b_j)
    g = m.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(4, 4, 4, 4)
    return g


def _dissipative_superoperator(g_relax: float, g_excite: float, g_dephase: float) -> np.ndarray:
    """Single-site generator on the row-major-vectorized local matrix."""
    p0 = SP @ SM  # |0><0|
    p1 = SM @ SP  # |1><1|
    eye4 = np.eye(4, dtype=complex)

    def sandwich(a, b):
        return np.kron(a, b.T)

    l1 = g_relax * (2.0 * sandwich(SP, SM) - sandwich(ID2, p1) - sandwich(p1, ID2))
    l1 += g_excite * (2.0 * sandwich(SM, SP) - sandwich(ID2, p0) - sandwich(p0, ID2))
    l1 += g_dephase * (2.0 * sandwich(SZ, SZ) - 2.0 * eye4)
    return l1


class MixedTebdEngine:
    """Applies composite Trotter steps to an MpsMixedState, truncating to bond_dim.

    Gates are exponentiated once at construction for every distinct stage
    coefficient.  The engine accumulates the relative singular-value weight
    discarded by truncation and the trace drift corrected at each step;
    steps whose discarded weight exceeds `truncation_ceiling` are counted
    and warned about.
    """

    def __init__(
        self,
        spec: ChainSpec,
        rates: RateSet,
        plan: TrotterPlan,
        bond_dim: int,
        truncation_ceiling: float = DEFAULT_TRUNCATION_CEILING,
    ):
        n = spec.n_qubits
        if rates.n_sites != n:
            raise ValueError("rate set and chain size differ")
        self.n_sites = n
        self.plan = plan
        self.bond_dim = bond_dim
        self.truncation_ceiling = truncation_ceiling
        self.truncation_weight = 0.0
        self.trace_drift_total = 0.0
        self.flagged_steps = 0
        self.step_count = 0

        h_bonds = bond_hamiltonians(spec)
        even_bonds = list(range(0, n - 1, 2))
        odd_bonds = list(range(1, n - 1, 2))
        self._stage_ops: list[tuple[str, object]] = []
        for family, c in plan.stages:
            tau = c * plan.dt
            if family == "even":
                gates = {b: _coherent_gate(h_bonds[b], tau) for b in even_bonds}
                self._stage_ops.append(("bonds", gates))
            elif family == "odd":
                gates = {b: _coherent_gate(h_bonds[b], tau) for b in odd_bonds}
                self._stage_ops.append(("bonds", gates))
            else:
                locals_ = [
                    expm(
                        tau
                        * _dissipative_superoperator(
                            rates.g_relax[i], rates.g_excite[i], rates.g_dephase[i]
                        )
                    )
                    for i in range(n)
                ]
                self._stage_ops.append(("sites", locals_))

    def step(self, state: MpsMixedState) -> MpsMixedState:
        """One full composite Trotter step; returns a new state."""
        if state.n_sites != self.n_sites:
            raise ValueError("state size does not match engine")
        work = state.copy()
        step_weight = 0.0
        for kind, ops in self._stage_ops:
            if kind == "sites":
                for i, e in enumerate(ops):
                    work.tensors[i] = np.einsum("st,ltr->lsr", e, work.tensors[i])
            else:
                for b, gate in ops.items():
                    step_weight += self._apply_bond_gate(work, b, gate)
        trace = mps_trace(work)
        if trace <= 0:
            raise RuntimeError(f"state trace collapsed to {trace:.3e} at step {self.step_count + 1}")
        drift = abs(trace - 1.0)
        self.trace_drift_total += drift
        work.tensors[-1] = work.tensors[-1] / trace
        self.truncation_weight += step_weight
        self.step_count += 1
        if step_weight > self.truncation_ceiling:
            self.flagged_steps += 1
            logger.warning(
                "step %d discarded weight %.3e above ceiling %.1e (bond_dim=%d)",
                self.step_count,
                step_weight,
                self.truncation_ceiling,
                self.bond_dim,
            )
        return work

    def _apply_bond_gate(self, state: MpsMixedState, b: int, gate: np.ndarray) -> float:
        """Apply one two-site gate at bond b (0-based) with SVD truncation."""
        t_left = state.tensors[b]
        t_right = state.tensors[b + 1]
        dl = t_left.shape[0]
        dr = t_right.shape[2]
        lam_left = state.bond_weights[b - 1] if b > 0 else np.ones(1)

        theta_bare = np.tensordot(t_left, t_right, axes=(2, 0))  # (dl, s, s', dr)
        theta_bare = np.tensordot(gate, theta_bare, axes=([2, 3], [1, 2]))  # (s, s', dl, dr)
        theta_bare = theta_bare.transpose(2, 0, 1, 3)
        theta = lam_left[:, None, None, None] * theta_bare

        u, s, vh = _svd_safe(theta.reshape(dl * 4, 4 * dr))
        total = float((s**2).sum())
        if total <= 0:
            raise RuntimeError(f"bond {b} collapsed to zero weight")
        keep = min(self.bond_dim, int((s > s[0] * _SV_FLOOR).sum()))
        keep = max(keep, 1)
        discarded = float((s[keep:] ** 2).sum()) / total

        vh = vh[:keep]
        norm = float(np.linalg.norm(s[:keep]))
        state.bond_weights[b] = s[:keep] / norm
        state.tensors[b + 1] = vh.reshape(keep, 4, dr)
        # Hastings update: contract the un-weighted theta with the new right
        # tensor instead of dividing by lam_left.
        t_new = np.tensordot(
            theta_bare.reshape(dl, 4, 4 * dr), vh.conj().reshape(keep, 4 * dr), axes=(2, 1)
        )
        state.tensors[b] = t_new
        return discarded


def save_checkpoint(
    state: MpsMixedState,
    path: str | Path,
    dt: float,
    step_count: int,
    truncation_weight: float,
) -> None:
    """Dump the state and run counters to a self-describing .npz file."""
    arrays = {f"tensor_{j}": t for j, t in enumerate(state.tensors)}
    arrays.update({f"bond_weight_{j}": w for j, w in enumerate(state.bond_weights)})
    np.savez_compressed(
        path,
        format=np.array(CHECKPOINT_FORMAT),
        tensor_convention=np.array("bond-weights-absorbed-right"),
        n_sites=np.array(state.n_sites),
        bond_dim=np.array(state.bond_dim),
        dt=np.array(dt),
        step_count=np.array(step_count),
        truncation_weight=np.array(truncation_weight),
        **arrays,
    )


def load_checkpoint(path: str | Path) -> tuple[MpsMixedState, dict]:
    """Restore a state saved by save_checkpoint, with its run counters."""
    with np.load(path) as data:
        fmt = str(data["format"])
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"unknown checkpoint format {fmt!r}")
        n = int(data["n_sites"])
        tensors = [data[f"tensor_{j}"] for j in range(n)]
        weights = [data[f"bond_weight_{j}"] for j in range(n - 1)]
        state = MpsMixedState(n, tensors, weights, int(data["bond_dim"]))
        meta = {
            "dt": float(data["dt"]),
            "step_count": int(data["step_count"]),
            "truncation_weight": float(data["truncation_weight"]),
        }
    return state, meta
