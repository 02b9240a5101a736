import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from lioueps import spectral
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
    """calls, one (left, size, real) per matrix solved by eig, cover the
    sector orbits of the Liouvillians mats (one matrix, or a list of them:
    the points of a grid) once each.  The sectors are labelled here by
    scipy's connected_components on the nonzero entries, and an orbit is a
    sector S with its partner P S under the swap P of vec(|m><n|) and
    vec(|n><m|): a partner pair takes one complex eig, a self-conjugate
    sector (S = P S) one real eig, and an orbit of 1x1 sectors none.  Every
    call asks for left vectors exactly when left is set."""
    want = []
    for mat in ([mats] if np.ndim(mats) == 2 else mats):
        _, comp = connected_components(coo_matrix(np.asarray(mat) != 0), directed=False)
        d = int(round(np.sqrt(comp.size)))
        partner = comp[np.arange(comp.size).reshape(d, d).T.ravel()]
        for s, size in enumerate(np.bincount(comp)):
            mate = partner[np.flatnonzero(comp == s)[0]]
            if size >= 2 and mate >= s:
                want.append((int(size), bool(mate == s)))
    assert [l for l, _, _ in calls] == [left] * len(calls)
    assert sorted((size, real) for _, size, real in calls) == sorted(want)


def conjugation_key(vals):
    """The multiset of vals as sorted (re, im) pairs, a zero imaginary part
    read as +0.0: equal for vals and vals.conj() exactly when the values
    are closed under conjugation bit for bit."""
    return sorted(zip(vals.real.tolist(), (vals.imag + 0.0).tolist()))


@pytest.fixture(scope="session", autouse=True)
def conjugate_closed_solves():
    """Every solve that _block_eig makes with the partner swap, in any
    test, returns values closed under conjugation bit for bit, before any
    clustering."""
    block_eig = spectral._block_eig

    def checked(n, entries, left=False, partner=None):
        out = block_eig(n, entries, left, partner)
        if partner is not None:
            assert conjugation_key(out[0]) == conjugation_key(out[0].conj())
        return out

    spectral._block_eig = checked
    yield
    spectral._block_eig = block_eig


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
    """One (left, size, real) per matrix solved, and the number of calls."""
    invocations = 0


@pytest.fixture
def eig_calls(monkeypatch):
    """np.linalg.eig and scipy.linalg.eig, the two entry points of
    lioueps.spectral._block_eig, recording for each matrix solved (every
    matrix of a stacked call) whether left vectors were asked for, its
    size a.shape[-1] and whether it is real, and counting the calls."""
    calls = EigCalls()

    def counting(eig):
        def counting_eig(a, *args, **kwargs):
            shape = np.shape(a)
            left = bool(kwargs.get("left", len(args) > 1 and args[1]))
            real = not np.iscomplexobj(a)
            calls.extend([(left, shape[-1], real)] * int(np.prod(shape[:-2])))
            calls.invocations += 1
            return eig(a, *args, **kwargs)
        return counting_eig

    for module in (np.linalg, scipy.linalg):
        monkeypatch.setattr(module, "eig", counting(module.eig))
    return calls
