import os
from string import ascii_letters

import numpy as np
import pytest
from scipy.linalg import expm

import qubitchain as qc
from qubitchain.lindblad import block_matrix
from qubitchain.pauli import pauli_strings


def pytest_collection_modifyitems(config, items):
    if os.environ.get("QUBITCHAIN_LONG_JOBS") == "1":
        return
    skip = pytest.mark.skip(reason="long job; set QUBITCHAIN_LONG_JOBS=1 to run")
    for item in items:
        if "longjob" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def homogeneous8():
    return qc.ChainSpec.homogeneous(8)


def site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Dense embedding of a single-site 2x2 operator at `site` (1-based)."""
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n - site), dtype=complex)
    return np.kron(np.kron(left, op), right)


def kron_all(ops: list[np.ndarray]) -> np.ndarray:
    """Tensor product of a list of matrices, site 1 first (most significant)."""
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def random_density_matrix(rng, dim, rank=None):
    """Ginibre-induced random mixed state."""
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def dense(h):
    """The d x d matrix of a Hamiltonian given as its (indices, block) pairs."""
    indices, parts = zip(*h)
    return block_matrix(parts, indices)


def whole(matrix):
    """A dense d x d matrix as the one block the solvers take."""
    return [(np.arange(len(matrix)), matrix)]


def plus_product(n):
    """Lab-frame |+>^N with |+> = (|up> + |down>)/sqrt(2): every amplitude 2**(-N/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex)


def bell_head(n):
    """Lab-frame (|up down> + |down up>)/sqrt(2) on sites (1, 2), |+> everywhere else."""
    if n < 2:
        raise ValueError("bell_head needs n >= 2")
    bell = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    tail = plus_product(n - 2) if n > 2 else np.array([1.0], dtype=complex)
    return np.kron(bell, tail)


def mps_to_dense(state):
    """The full density matrix of an MPS state, contracted bond by bond (up to 8 sites)."""
    n = state.n_sites
    if n > 8:
        raise ValueError("dense reconstruction refused above 8 sites")
    # (row, column, bond): each site's Pauli index becomes one more row and column bit.
    rho = np.ones((1, 1, 1))
    for t in state.tensors:
        rho = np.einsum("rcd,dse,sab->racbe", rho, t, pauli_strings(1) / np.sqrt(2.0))
        rho = rho.reshape(2 * rho.shape[0], 2 * rho.shape[2], t.shape[2])
    return rho[:, :, 0]


def partial_trace(rho, sites):
    """Independent oracle: the partial trace of a density matrix (or a stack
    of them along leading axes) onto ascending 1-based `sites`, by einsum.

    Repeated letters trace each unkept ket/bra axis pair.
    """
    n = int(round(np.log2(rho.shape[-1])))
    keep = [s - 1 for s in sites]
    row = list(ascii_letters[:n])
    col = list(ascii_letters[n : 2 * n])
    for p in range(n):
        if p not in keep:
            col[p] = row[p]
    out = [row[p] for p in keep] + [col[p] for p in keep]
    spec = "..." + "".join(row) + "".join(col) + "->..." + "".join(out)
    batch = rho.shape[:-2]
    k = len(sites)
    return np.einsum(spec, rho.reshape(batch + (2,) * (2 * n))).reshape(batch + (2**k, 2**k))


def unitary_propagate(rho0, h, t):
    """exp(-iHt) rho0 exp(+iHt) by the dense matrix exponential of H's blocks (noiseless oracle)."""
    u = expm(-1j * t * dense(h))
    return u @ rho0 @ u.conj().T
