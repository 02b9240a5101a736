import random

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from lioueps import sectors, spectral
from lioueps.ep_detect import overlap_matrix
from lioueps.models import get_family
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


def assert_one_eig_per_orbit(calls, mats, left):
    """calls, one (left, size, real) per matrix solved by eig, cover once
    each the orbits of the sectors that _block_eig solves whole in the
    Liouvillians mats (one matrix, or a list of them: the points of a
    grid), labelled here by scipy's connected_components on the nonzero
    entries.  Every sector is solved whole with left vectors, and without
    them where it has fewer than sectors.SCC_MIN_SIZE indices, which is
    every sector of the mats given here.  P is the swap of vec(|m><n|)
    and vec(|n><m|).  Of a partner pair of sectors (S, P S) the one with
    the smaller first index is solved, by one complex eig, and a
    self-conjugate sector (S = P S) by one real eig; a 1x1 sector takes
    none.  Every call asks for left vectors exactly when left is set."""
    want = []
    for mat in ([mats] if np.ndim(mats) == 2 else mats):
        _, comp = connected_components(coo_matrix(np.asarray(mat) != 0), directed=False)
        n = comp.size
        assert left or np.bincount(comp).max() < sectors.SCC_MIN_SIZE
        d = int(round(np.sqrt(n)))
        p = np.arange(n).reshape(d, d).T.ravel()
        first = np.full(comp.max() + 1, n)
        np.minimum.at(first, comp, np.arange(n))
        mate = comp[p[first[comp]]]
        for s in np.unique(comp):
            nodes = np.flatnonzero(comp == s)
            if nodes.size >= 2 and first[mate[nodes[0]]] >= first[s]:
                want.append((int(nodes.size), bool(mate[nodes[0]] == s)))
    assert [l for l, _, _ in calls] == [left] * len(calls)
    assert sorted((size, real) for _, size, real in calls) == sorted(want)


def conjugation_key(vals):
    """The multiset of vals as sorted (re, im) pairs, a zero imaginary part
    read as +0.0: equal for vals and vals.conj() exactly when the values
    are closed under conjugation bit for bit."""
    return sorted(zip(vals.real.tolist(), (vals.imag + 0.0).tolist()))


def assert_conjugate_orbits(vals, vectors, blocks, p, whole):
    """The orbits under the partner swap p of one _block_eig solve, bit for
    bit, given its values, its dense vector arrays (right, and left if
    given) and its sector blocks: a mirrored sector's values and vectors
    are the conjugates of its partner's with the rows moved by p; in a
    self-conjugate sector a value with Im exactly 0 has a Hermitian
    eigenmatrix (x = P conj x), and every other value's conjugate is a
    value of the sector whose vector is P conj of its own.  With whole,
    every sector was solved by one eig, and a complex value of a
    self-conjugate sector has exactly one conjugate there; a sector solved
    by its units can hold a value repeated in two units with the same
    bits, so otherwise one of the conjugates carries the P-conjugate
    vector."""
    vecs = vectors[0]
    sectors = [(r, c) for r, c, _ in blocks for r, c in zip(r, c)]
    first = {int(r[0]): (r, c) for r, c in sectors}
    for r, c in sectors:
        mate_rows, mate_cols = first[int(np.sort(p[r])[0])]
        if mate_rows[0] < r[0]:
            assert vals[c].tobytes() == vals[mate_cols].conj().tobytes()
            # a 1x1 sector holds the unit vector
            for v in vectors if r.size > 1 else ():
                assert v[np.ix_(r, c)].tobytes() == v[np.ix_(p[r], mate_cols)].conj().tobytes()
        elif mate_rows[0] == r[0]:
            for j in c:
                x = vecs[r, j]
                if vals[j].imag == 0:
                    assert np.array_equal(x, vecs[p[r], j].conj())
                    continue
                k = c[(vals[c].real == vals[j].real) & (vals[c].imag == -vals[j].imag)]
                assert k.size == 1 or not whole
                assert any(vecs[r, i].tobytes() == vecs[p[r], j].conj().tobytes() for i in k)


@pytest.fixture(scope="session", autouse=True)
def conjugate_closed_solves():
    """Every solve that _block_eig makes with the partner swap P, in any
    test, is closed under conjugation bit for bit, before any clustering,
    one orbit of sectors at a time: a self-conjugate sector's values as a
    multiset, and a mirrored sector's values as the conjugates of its
    partner's.  That holds for a sector solved by its units too: the
    values -i(h_a - h_b^*) and -i(h_b - h_a^*) of the indices |a><b| and
    |b><a| are exact conjugates, and a sector that fails the residual
    check is solved whole."""
    block_eig = spectral._block_eig

    def checked(n, entries, left=False, partner=None, factors=None):
        out = block_eig(n, entries, left, partner, factors)
        if partner is not None:
            vals = out[0]
            assert conjugation_key(vals) == conjugation_key(vals.conj())
            sectors = [(r, c) for rows, cols, _ in out[1] for r, c in zip(rows, cols)]
            first = {int(r[0]): c for r, c in sectors}
            for r, c in sectors:
                mate = int(partner[r].min())
                want = vals[c] if mate == r[0] else vals[first[mate]]
                assert conjugation_key(vals[c].conj()) == conjugation_key(want)
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


def ep_locate_l3_model(seed):
    """The example3 levels=3 model of the ep-locate-l3 benchmark workload at
    a seed, and the start of its bracket of width 0.2 centred on the EP
    (perfbench/workloads.py draws them the same way)."""
    rng = random.Random(f"ep-locate-l3:{seed}")
    omega, gamma_a, gamma_b = rng.uniform(0.8, 1.2), rng.uniform(0.9, 1.2), rng.uniform(0.3, 0.5)
    family = get_family("example3", levels=3, omega=omega, gamma_a=gamma_a, gamma_b=gamma_b)
    return family, (gamma_a - gamma_b) / 4 - 0.1


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
