"""Closed-form tests of the oracle kit.

    python3 -m pytest bench/test_oracle.py
"""

import math

import numpy as np
import pytest

import oracle


def _single_site(epsilon, delta, gamma, n_thermal):
    h = oracle.hamiltonian([epsilon], [delta], [])
    return oracle.liouvillian(h, [epsilon], [delta], gamma, n_thermal)


def test_excited_population_decays_at_twice_gamma():
    gamma = 0.01
    lv = _single_site(0.0, 0.1, gamma, 0.0)
    rho0 = np.diag([0.0, 1.0])  # |1>, the excited state
    states = oracle.evolve_density(lv, rho0, 50.0, 11)
    times = np.linspace(0.0, 50.0, 11)
    assert np.allclose(states[:, 1, 1].real, np.exp(-2 * gamma * times), rtol=0, atol=1e-12)


def test_single_site_steady_excited_population():
    n_thermal = 0.3
    rho = oracle.steady_state(_single_site(0.0, 0.1, 0.02, n_thermal))
    assert rho[1, 1].real == pytest.approx(n_thermal / (2 * n_thermal + 1), abs=1e-12)
    assert abs(rho[0, 1]) < 1e-12


def test_pure_dephasing_decays_coherence_at_four_gamma():
    # theta = 0 (no tunnelling term in the eigenbasis) leaves only dephasing.
    gamma = 0.02
    lv = _single_site(0.1, 0.0, gamma, 0.0)
    rho0 = np.full((2, 2), 0.5)
    states = oracle.evolve_density(lv, rho0, 20.0, 5)
    times = np.linspace(0.0, 20.0, 5)
    assert np.allclose(np.abs(states[:, 0, 1]), 0.5 * np.exp(-4 * gamma * times), atol=1e-12)
    assert np.allclose(states[:, 1, 1].real, 0.5, atol=1e-12)


def test_two_site_spectrum():
    # eps = 0: H = -delta/2 (Z1 + Z2) - K/2 X1 X2; the {00, 11} block has
    # eigenvalues +-sqrt(delta^2 + K^2/4), the {01, 10} block +-K/2.
    delta, k = 0.1, 0.03
    h = oracle.hamiltonian([0.0, 0.0], [delta, delta], [k]).toarray()
    expected = sorted([-math.hypot(delta, k / 2), -k / 2, k / 2, math.hypot(delta, k / 2)])
    assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-14)


def test_bell_pair_has_unit_log_negativity():
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert oracle.log_negativity_pair(oracle.pair_from_pure(bell, 1, 2)) == pytest.approx(1.0, abs=1e-14)
    # Bell pair on sites (1, 3) of a three-site chain, site 2 in |0>.
    psi = np.kron(np.kron([1.0, 0.0], [1.0, 0.0]), [0.0, 1.0]) + np.kron(np.kron([0.0, 1.0], [1.0, 0.0]), [1.0, 0.0])
    psi = psi / math.sqrt(2)
    rho = np.outer(psi, psi)
    assert oracle.log_negativity_pair(oracle.pair_from_density(rho, 1, 3)) == pytest.approx(1.0, abs=1e-14)
    assert oracle.log_negativity_pair(oracle.pair_from_density(rho, 1, 2)) == 0.0


def test_classify_row_rule():
    assert oracle.classify_row([0.0, 0.0]) == "zero"
    assert oracle.classify_row([0.0, 0.02, 0.01]) == "non_monotone"
    assert oracle.classify_row([0.03, 0.02, 0.0]) == "monotone_decreasing"
