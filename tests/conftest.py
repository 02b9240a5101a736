import numpy as np
import pytest

from lioueps.ops_core import HilbertSpace, Operator
from lioueps.superop import LindbladModel


def assert_multiset_close(actual, expected, tol):
    """Greedy nearest-neighbour matching of two complex multisets."""
    actual = list(np.asarray(actual, dtype=complex))
    expected = np.asarray(expected, dtype=complex)
    assert len(actual) == len(expected)
    for want in expected:
        dists = [abs(a - want) for a in actual]
        k = int(np.argmin(dists))
        assert dists[k] <= tol, f"no match for {want}: nearest at distance {dists[k]}"
        actual.pop(k)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_lindblad_model(rng, max_dim=6):
    """Generic small model: random Hermitian H plus 1-2 random channels."""
    dim = int(rng.integers(2, max_dim + 1))
    space = HilbertSpace((dim,))
    h = Operator(space, random_hermitian(rng, dim))
    jumps = []
    for _ in range(int(rng.integers(1, 3))):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps.append((float(rng.uniform(0.2, 1.0)), Operator(space, x / np.linalg.norm(x))))
    return LindbladModel(h, tuple(jumps))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
