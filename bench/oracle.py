"""Reference computations for the benchmark checks, independent of qubitchain.

Nothing here imports the package.  The model is rebuilt from the docstrings
of ``qubitchain.chain`` and ``qubitchain.lindblad``:

* eigenbasis-frame Hamiltonian (site 1 most significant, Z|0> = +|0>)
      H' = -1/2 sum_i w_i Z_i
           - 1/2 sum_i K_i (c_i Z_i + s_i X_i)(c_{i+1} Z_{i+1} + s_{i+1} X_{i+1})
  with theta_i = atan2(delta_i, eps_i), w_i = hypot(eps_i, delta_i),
  c_i = cos(theta_i), s_i = sin(theta_i);
* master equation
      drho/dt = -i[H, rho]
                + sum_i G_i  (2 s+ rho s- - rho s- s+ - s- s+ rho)
                + sum_i Gt_i (2 s- rho s+ - rho s+ s- - s+ s- rho)
                + sum_i g_i  (2 Z rho Z - 2 rho)
  with s+ = |0><1|, G_i = sin^2(theta_i)(1 + n_T) Gamma,
  Gt_i = sin^2(theta_i) n_T Gamma, g_i = cos^2(theta_i) Gamma.

Operators are sparse Kronecker products.  Density matrices are vectorized
row-major, so vec(A rho B) = (A kron B^T) vec(rho).  Time evolution uses
``scipy.sparse.linalg.expm_multiply``; steady states are the Liouvillian's
null vector, found by a sparse LU solve with one row replaced by the trace
condition.  Logarithmic negativity is computed here from 4x4 pair states.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, spsolve

X = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
Z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
S_PLUS = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # |0><1|, lowers the energy
S_MINUS = S_PLUS.T.tocsr()


def site_op(op, site: int, n: int) -> sp.csr_matrix:
    """`op` on `site` (1-based, site 1 most significant) of an n-site chain."""
    left = sp.identity(2 ** (site - 1), format="csr")
    right = sp.identity(2 ** (n - site), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def angles(epsilon, delta):
    """Mixing angles theta_i and splittings w_i per site."""
    theta = [math.atan2(d, e) for e, d in zip(epsilon, delta)]
    omega = [math.hypot(e, d) for e, d in zip(epsilon, delta)]
    return theta, omega


def hamiltonian(epsilon, delta, coupling) -> sp.csr_matrix:
    """Eigenbasis-frame chain Hamiltonian as a sparse matrix."""
    n = len(delta)
    theta, omega = angles(epsilon, delta)
    h = sp.csr_matrix((2**n, 2**n), dtype=float)
    for i in range(1, n + 1):
        h = h - 0.5 * omega[i - 1] * site_op(Z, i, n)
    local = [
        math.cos(theta[i - 1]) * site_op(Z, i, n) + math.sin(theta[i - 1]) * site_op(X, i, n)
        for i in range(1, n + 1)
    ]
    for i in range(1, n):
        h = h - 0.5 * coupling[i - 1] * (local[i - 1] @ local[i])
    return h.tocsr()


def rates(epsilon, delta, gamma: float, n_thermal: float):
    """Per-site (relaxation, excitation, dephasing) rates."""
    theta, _ = angles(epsilon, delta)
    s2 = [math.sin(t) ** 2 for t in theta]
    c2 = [math.cos(t) ** 2 for t in theta]
    return (
        [s * (1.0 + n_thermal) * gamma for s in s2],
        [s * n_thermal * gamma for s in s2],
        [c * gamma for c in c2],
    )


def _sandwich(a, b):
    """Superoperator of rho -> a rho b on row-major vectors."""
    return sp.kron(a, b.T, format="csr")


def liouvillian(h, epsilon, delta, gamma: float, n_thermal: float) -> sp.csr_matrix:
    """Generator L of the master equation, d vec(rho)/dt = L vec(rho)."""
    n = len(delta)
    d = 2**n
    eye = sp.identity(d, format="csr")
    out = -1j * (_sandwich(h, eye) - _sandwich(eye, h))
    g_relax, g_excite, g_dephase = rates(epsilon, delta, gamma, n_thermal)
    for i in range(1, n + 1):
        sp_i, sm_i, z_i = site_op(S_PLUS, i, n), site_op(S_MINUS, i, n), site_op(Z, i, n)
        for rate, jump in ((g_relax[i - 1], sp_i), (g_excite[i - 1], sm_i)):
            if rate:
                jj = jump.T @ jump  # jump^dagger jump (real operators)
                out = out + rate * (
                    2.0 * _sandwich(jump, jump.T) - _sandwich(eye, jj) - _sandwich(jj, eye)
                )
        if g_dephase[i - 1]:
            out = out + g_dephase[i - 1] * (2.0 * _sandwich(z_i, z_i) - 2.0 * sp.identity(d * d))
    return out.tocsr()


def evolve_density(lv, rho0: np.ndarray, t_end: float, n_samples: int) -> np.ndarray:
    """rho(t) on the uniform grid linspace(0, t_end, n_samples): (samples, d, d)."""
    d = rho0.shape[0]
    vecs = expm_multiply(lv, rho0.astype(complex).ravel(), start=0.0, stop=t_end,
                         num=n_samples, endpoint=True)
    return vecs.reshape(n_samples, d, d)


def evolve_pure(h, psi0: np.ndarray, t_end: float, n_samples: int) -> np.ndarray:
    """psi(t) = exp(-iHt) psi0 on linspace(0, t_end, n_samples): (samples, d)."""
    return expm_multiply(-1j * h, psi0.astype(complex), start=0.0, stop=t_end,
                         num=n_samples, endpoint=True)


def steady_state(lv) -> np.ndarray:
    """Normalized null vector of L as a density matrix."""
    dim2 = lv.shape[0]
    d = int(round(math.sqrt(dim2)))
    trace_row = sp.csr_matrix(
        (np.ones(d), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))), shape=(1, dim2)
    )
    a = sp.vstack([trace_row, lv[1:]], format="csc")
    rhs = np.zeros(dim2, dtype=complex)
    rhs[0] = 1.0
    rho = spsolve(a, rhs).reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def pair_from_density(rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """4x4 reduced state of sites i < j (1-based) of a dense density matrix."""
    n = int(round(math.log2(rho.shape[0])))
    rest = [p for p in range(n) if p not in (i - 1, j - 1)]
    order = [i - 1, j - 1] + rest
    t = rho.reshape((2,) * (2 * n)).transpose(order + [n + p for p in order])
    t = t.reshape(4, 2 ** (n - 2), 4, 2 ** (n - 2))
    return np.einsum("akbk->ab", t)


def pair_from_pure(psi: np.ndarray, i: int, j: int) -> np.ndarray:
    """4x4 reduced state of sites i < j of a pure state vector."""
    n = int(round(math.log2(psi.size)))
    rest = [p for p in range(n) if p not in (i - 1, j - 1)]
    m = psi.reshape((2,) * n).transpose([i - 1, j - 1] + rest).reshape(4, -1)
    return m @ m.conj().T


def log_negativity_pair(rho4: np.ndarray) -> float:
    """log2 of the trace norm of the partial transpose on the first qubit."""
    pt = rho4.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
    pt = 0.5 * (pt + pt.conj().T)
    return max(0.0, math.log2(float(np.abs(np.linalg.eigvalsh(pt)).sum())))


def classify_row(values, floor: float = 1e-6) -> str:
    """Row class by the rule in the ``qubitchain.harness.classify_row`` docstring.

    "zero" when every value is below the floor; "non_monotone" when
    entanglement is absent below some noise strength but present above it,
    or rises anywhere along the grid (a step up by more than the floor);
    otherwise "monotone_decreasing".
    """
    if all(v < floor for v in values):
        return "zero"
    if any(b > max(a, floor) + floor for a, b in zip(values, values[1:])):
        return "non_monotone"
    return "monotone_decreasing"
