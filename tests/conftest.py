import os

import numpy as np
import pytest
from scipy.linalg import expm

import qubitchain as qc


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


def random_density_matrix(rng, dim, rank=None):
    """Ginibre-induced random mixed state."""
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def unitary_propagate(rho0, h, t):
    """exp(-iHt) rho0 exp(+iHt) by the dense matrix exponential (noiseless oracle)."""
    u = expm(-1j * t * h)
    return u @ rho0 @ u.conj().T
