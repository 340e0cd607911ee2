import numpy as np
import pytest

from qubitchain.pauli import ID2, SX, SY, SZ, pauli_strings

SIGMA = (ID2, SX, SY, SZ)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_strings_are_orthogonal(m):
    strings = pauli_strings(m)
    assert strings.shape == (4**m, 2**m, 2**m)
    gram = np.einsum("kab,lab->kl", strings.conj(), strings)  # tr(P_k^dagger P_l)
    assert np.array_equal(gram, 2**m * np.eye(4**m))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_strings_are_read_only(m):
    strings = pauli_strings(m)
    assert pauli_strings(m) is strings
    assert not strings.flags.writeable
    with pytest.raises(ValueError):
        strings[0, 0, 0] = 2.0


def test_one_site_order_is_i_x_y_z():
    assert np.array_equal(pauli_strings(1), np.array(SIGMA))


def test_site_one_is_most_significant():
    strings = pauli_strings(2)
    for a in range(4):
        for b in range(4):
            assert strings[4 * a + b].tobytes() == np.kron(SIGMA[a], SIGMA[b]).tobytes()


def test_rejects_no_sites():
    with pytest.raises(ValueError, match="m must be >= 1"):
        pauli_strings(0)
