import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from lioueps.ep_detect import overlap_matrix
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


def assert_one_eig_per_sector(calls, mats, left):
    """calls, one (left, size) per matrix solved by eig, cover the sectors
    of mats (one matrix, or a list of them: the points of a grid) once
    each: every call asks for left vectors exactly when left is set, and
    the sizes are those of the sectors of size >= 2, labelled here by
    scipy's connected_components on the nonzero entries (a 1x1 sector
    takes no eig)."""
    sizes = []
    for mat in ([mats] if np.ndim(mats) == 2 else mats):
        _, comp = connected_components(coo_matrix(np.asarray(mat) != 0), directed=False)
        sizes += [int(b) for b in np.bincount(comp) if b >= 2]
    assert [l for l, _ in calls] == [left] * len(calls)
    assert sorted(size for _, size in calls) == sorted(sizes)


def assert_overlap_rows(i, j, ovl, system):
    """The listed overlap rows (i, j, ovl) of one eigensystem obey the
    support rule: the pairs i < j run in row-major order, they are exactly
    the pairs whose vectors share a support component (labelled here by
    scipy's connected_components on the bipartite entry-column graph),
    each listed overlap equals overlap_matrix bitwise, and every omitted
    pair is exactly 0 in overlap_matrix and in a dense gram."""
    vecs = system.vectors
    m, n = vecs.shape
    i, j, ovl = (np.asarray(x) for x in (i, j, ovl))
    key = i * n + j
    assert np.all(i < j) and np.all(np.diff(key) > 0)
    rows, cols = np.nonzero(vecs)
    graph = coo_matrix((np.ones(rows.size), (rows, m + cols)), shape=(m + n, m + n))
    _, comp = connected_components(graph, directed=False)
    iu, ju = np.triu_indices(n, 1)
    shared = comp[m + iu] == comp[m + ju]
    np.testing.assert_array_equal(key, (iu * n + ju)[shared])
    full = overlap_matrix(system)
    assert np.array_equal(ovl, full[i, j])
    gram = np.abs(vecs.conj().T @ vecs)
    assert np.all(full[iu[~shared], ju[~shared]] == 0)
    assert np.all(gram[iu[~shared], ju[~shared]] == 0)


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


class EigCalls(list):
    """One (left, size) per matrix solved, and the number of calls."""
    invocations = 0


@pytest.fixture
def eig_calls(monkeypatch):
    """np.linalg.eig and scipy.linalg.eig, the two entry points of
    lioueps.spectral._block_eig, recording for each matrix solved (every
    matrix of a stacked call) whether left vectors were asked for and its
    size a.shape[-1], and counting the calls."""
    calls = EigCalls()

    def counting(eig):
        def counting_eig(a, *args, **kwargs):
            shape = np.shape(a)
            left = bool(kwargs.get("left", len(args) > 1 and args[1]))
            calls.extend([(left, shape[-1])] * int(np.prod(shape[:-2])))
            calls.invocations += 1
            return eig(a, *args, **kwargs)
        return counting_eig

    for module in (np.linalg, scipy.linalg):
        monkeypatch.setattr(module, "eig", counting(module.eig))
    return calls
