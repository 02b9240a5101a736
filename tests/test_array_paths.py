"""The array paths of the spectral and EP-search hot loops against the
loops they replace.

Each reference below is the per-element loop the library used before its
array form: the sequential cluster rule with its value rewrite, the greedy
argmax assignment, the per-run tie ordering, the unfiltered candidate scan
and np.kron assembly.  The library must return the same bits on inputs
built to sit on the edges of each rule: planted clusters and near-misses
around the tolerance, conjugate pairs and near-real values, rectangular
and tie-heavy overlap matrices, and Delta stacks with exact zeros.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lioueps.ep_detect import SweepResult, _candidates, _greedy_assignment, sweep
from lioueps.models import example3, get_family
from lioueps.ops_core import HilbertSpace, Operator, tensor
from lioueps.spectral import _block_eig, _cluster_labels, _cluster_sort, _sort_indices
from lioueps.superop import _generator, assemble_liouvillian, effective_hamiltonian

ORACLE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def bits(a):
    """The raw bytes of an array, so that -0.0 and 0.0 differ."""
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


# ---------------------------------------------------------------------------
# references: the loops as they were
# ---------------------------------------------------------------------------

def reference_cluster(vals, tol):
    labels = np.full(len(vals), -1)
    n_clusters = 0
    for i in range(len(vals)):
        if labels[i] >= 0:
            continue
        members = np.flatnonzero((labels < 0) & (np.abs(vals - vals[i]) <= tol))
        mean = vals[members].mean()
        labels[members] = n_clusters
        n_clusters += 1
        if abs(mean.imag) <= tol:
            vals[members] = mean.real
            continue
        vals[members] = mean
        partners = np.flatnonzero((labels < 0) & (np.abs(vals - mean.conjugate()) <= tol))
        if partners.size:
            labels[partners] = n_clusters
            vals[partners] = mean.conjugate()
            n_clusters += 1
    return labels


def reference_sort_indices(primary, secondary, vecs):
    order = np.lexsort((secondary, primary))
    p, q = primary[order], secondary[order]
    tied = np.r_[0, (p[1:] == p[:-1]) & (q[1:] == q[:-1]), 0].astype(np.int8)
    for start, stop in np.flatnonzero(np.diff(tied)).reshape(-1, 2):
        group = order[start:stop + 1]
        rows = np.ascontiguousarray(vecs[:, group].T).view(float)
        varying = (rows != rows[0]).any(axis=0)
        if varying.any():
            order[start:stop + 1] = group[np.lexsort(rows[:, varying].T[::-1])]
    return order


def reference_greedy(prev_vecs, cur_vecs):
    n = prev_vecs.shape[1]
    ovl = np.abs(prev_vecs.conj().T @ cur_vecs)
    perm = np.full(n, -1, dtype=int)
    quality = np.zeros(n)
    work = ovl.copy()
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i] = j
        quality[i] = ovl[i, j]
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm, quality


def reference_parabola_root(x, y):
    h1, h2 = x[1] - x[0], x[2] - x[1]
    d1, d2 = (y[1] - y[0]) / h1, (y[2] - y[1]) / h2
    a = (d2 - d1) / (h1 + h2)
    b = a * h2 + d2
    disc = np.sqrt(b * b - 4.0 * a * y[2])
    den = np.where(np.abs(b + disc) >= np.abs(b - disc), b + disc, b - disc)
    return x[2] - 2.0 * y[2] / den


def reference_candidates(res, bi, bj):
    last = res.grid.size - 2
    found = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, last + 1):
            vals = res.eigenvalues[[k - 1, k + 1, k]]
            delta = (vals[:, bi] - vals[:, bj]) ** 2
            t = reference_parabola_root((-1.0, 1.0, 0.0), delta)
            inside = ((t.real >= (-1.0 if k == 1 else -0.5))
                      & (t.real <= (1.0 if k == last else 0.5)) & (np.abs(t.imag) <= 1.0))
            hit = (inside | (delta[2] == 0)) & (delta != 0).any(axis=0)
            found += [(int(bi[p]), int(bj[p]), k) for p in np.flatnonzero(hit)]
    return sorted(found)


def kron_generator(k, jumps=()):
    eye = np.eye(k.shape[0])
    mat = np.kron(-1j * k, eye)
    mat += np.kron(eye, 1j * k.conj())
    for g in jumps:
        mat += np.kron(g, g.conj())
    return mat


# ---------------------------------------------------------------------------
# cluster labelling and value rewrite
# ---------------------------------------------------------------------------

# a power of two, so that lattice offsets of whole and half tolerances,
# and their distances, are exact
TOL = 2.0 ** -20
# offsets from a planted centre, in units of tol: exact members, and
# near-misses just inside, at and beyond the claim and partner radii
OFFSETS = (0.0, 0.5, 0.9, 1.0, 2.0, 3.0)


@st.composite
def planted_spectra(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = []
    for _ in range(draw(st.integers(1, 12))):
        centre = complex(*rng.integers(-3, 4, 2) * draw(st.sampled_from([0.25, 1.0])))
        kind = draw(st.sampled_from(["free", "axis", "near-real", "real", "signed zero"]))
        if kind == "near-real":
            centre = complex(centre.real, draw(st.sampled_from([-1, 1])) * TOL
                             * draw(st.sampled_from(OFFSETS)))
        elif kind == "real":
            centre = complex(centre.real, 0.0)
        for _ in range(draw(st.integers(1, 4))):
            offset = TOL * draw(st.sampled_from(OFFSETS))
            if kind == "axis":
                # exact distances: members at whole and half tolerances
                member = centre + offset * draw(st.sampled_from([1, -1, 1j, -1j]))
            elif kind == "signed zero":
                # entries the arithmetic cannot produce: -0.0 real or imaginary parts
                zero, part = draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0, 1.0, -2.0]))
                member = complex(zero, part) if draw(st.booleans()) else complex(part, zero)
            else:
                member = centre + offset * (1 + 1e-3 * rng.standard_normal()) * np.exp(
                    2j * np.pi * rng.uniform())
            vals.append(member)
            if draw(st.booleans()):
                # a conjugate partner, exact or slightly off
                vals.append(np.conj(member) + TOL * draw(st.sampled_from(OFFSETS))
                            * draw(st.sampled_from([1, 1j, rng.uniform()])))
    vals = np.array(vals, dtype=complex)
    return vals[rng.permutation(vals.size)]


@ORACLE
@given(vals=planted_spectra())
def test_cluster_labels_equal_the_sequential_rule(vals):
    want = vals.copy()
    labels = reference_cluster(want, TOL)
    got = vals.copy()
    assert bits(_cluster_labels(got, TOL)) == bits(labels)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("count", [1, 2])
def test_cluster_labels_on_signed_zeros(count):
    """Every spectrum of one or two values from a set of signed zeros,
    units and tolerances: the means of one and two members keep np.mean's
    signs, and a seed exactly tol off the real axis takes no partner."""
    parts = (0.0, -0.0, 1.0, TOL, -TOL)
    points = [complex(a, b) for a, b in itertools.product(parts, parts)]
    for vals in itertools.product(points, repeat=count):
        want = np.array(vals)
        labels = reference_cluster(want, TOL)
        got = np.array(vals)
        assert bits(_cluster_labels(got, TOL)) == bits(labels)
        assert bits(got) == bits(want), vals


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       grid=st.sampled_from([TOL / 2, TOL, 3 * TOL, 1.0]))
def test_cluster_labels_on_lattice_values(seed, n, grid):
    # values on a lattice of spacing about tol: distances fall exactly on
    # the tolerance and every edge case of the window at once
    rng = np.random.default_rng(seed)
    vals = (rng.integers(-6, 7, n) + 1j * rng.integers(-6, 7, n)) * grid
    want = vals.copy()
    labels = reference_cluster(want, TOL)
    got = vals.copy()
    assert bits(_cluster_labels(got, TOL)) == bits(labels)
    assert bits(got) == bits(want)


def test_cluster_labels_on_a_closed_system():
    """Zero rates leave L = -i[H, .] with a purely imaginary spectrum,
    every value in one strip of real parts: the rule's bits hold, and the
    neighbour search stays small (a window on the real parts alone peaked
    at 36 MB at levels=6)."""
    for levels in (4, 6):
        mat = assemble_liouvillian(example3(1.0, 0.1, 0.0, 0.0, levels=levels)).matrix
        vals, _ = _block_eig(mat)
        want = vals.copy()
        labels = reference_cluster(want, TOL) if levels == 4 else None
        tracemalloc.start()
        try:
            got = _cluster_labels(vals, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if labels is not None:
            assert bits(got) == bits(labels)
            assert bits(vals) == bits(want)
        assert peak < 4 * 2**20


@pytest.mark.parametrize("levels,g,largest", [(3, 0.125, 2), (4, 0.125, 4), (3, 0.0, 3),
                                               (4, 0.0625, 4)])
def test_cluster_sort_equals_the_loops_at_exceptional_points(levels, g, largest):
    """example3 at its EPs and at g = 0: clusters of three and more, and
    ties that reach the eigenvector tiebreak."""
    mat = np.asarray(get_family("example3", levels=levels).liouvillian_family("g").matrix(g))
    vals, vecs = _block_eig(mat)
    got = _cluster_sort(mat, vals.copy(), vecs.copy())
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    norm_bound = np.sqrt(np.linalg.norm(mat, 1) * np.linalg.norm(mat, np.inf))
    tol = max(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    vals = vals.copy()
    labels = reference_cluster(vals, tol)
    order = reference_sort_indices(np.abs(vals.real), vals.imag, vecs)
    assert np.bincount(labels).max() == largest
    for a, b in zip(got, (vals[order], vecs[:, order], labels[order], order)):
        assert bits(a) == bits(b)


# ---------------------------------------------------------------------------
# tie ordering
# ---------------------------------------------------------------------------

@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 6),
       levels=st.integers(1, 4))
def test_sort_indices_equals_the_per_run_lexsort(seed, n, m, levels):
    rng = np.random.default_rng(seed)
    primary = rng.integers(0, levels + 1, n).astype(float)
    secondary = rng.integers(0, 2, n) * rng.choice([1.0, -1.0, 0.0, -0.0], n)
    vecs = (rng.integers(-1, 2, (m, n)) + 1j * rng.integers(-1, 2, (m, n))) * 0.5
    vecs[:, rng.integers(0, n, n // 3)] = vecs[:, rng.integers(0, n, n // 3)]
    vecs[vecs == 0] *= rng.choice([1.0, -1.0], np.count_nonzero(vecs == 0))
    want = reference_sort_indices(primary, secondary, vecs)
    assert bits(_sort_indices(primary, secondary, vecs)) == bits(want)


# ---------------------------------------------------------------------------
# greedy assignment
# ---------------------------------------------------------------------------

@st.composite
def overlap_inputs(draw):
    """(prev, cur) with abs(prev^H cur) equal to a chosen matrix: prev is
    columns of the identity, so the overlaps are abs of rows of cur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    cur = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    style = draw(st.sampled_from(["random", "rounded", "near-permutation", "zeros"]))
    if style == "rounded":
        cur = np.round(np.abs(cur), draw(st.integers(0, 1))) + 0j
    elif style == "near-permutation":
        cur = 0.05 * np.round(cur, 1) + np.eye(n)[:, rng.permutation(n)]
    elif style == "zeros":
        cur[rng.uniform(size=(n, n)) < 0.7] = 0
    cols = (np.arange(n) if draw(st.booleans())
            else rng.choice(n, size=min(n, 2), replace=False))
    return np.eye(n, dtype=complex)[:, cols], cur


@ORACLE
@given(inputs=overlap_inputs())
def test_greedy_assignment_equals_the_argmax_loop(inputs):
    prev, cur = inputs
    perm, quality = _greedy_assignment(prev, cur)
    want_perm, want_quality = reference_greedy(prev, cur)
    assert bits(perm) == bits(want_perm)
    assert bits(quality) == bits(want_quality)
    assert np.unique(perm).size == perm.size


def test_greedy_assignment_on_a_sweep_step():
    family = get_family("example3", levels=3).liouvillian_family("g")
    a, b = family.eigensystem(0.1), family.eigensystem(0.1 + 0.2 / 32)
    for prev in (a.vectors, a.vectors[:, [7, 8]], a.vectors[:, [40, 3]]):
        for got, want in zip(_greedy_assignment(prev, b.vectors), reference_greedy(prev, b.vectors)):
            assert bits(got) == bits(want)


# ---------------------------------------------------------------------------
# candidate scan
# ---------------------------------------------------------------------------

@ORACLE
@given(seed=st.integers(0, 2**32 - 1), points=st.integers(3, 12), n=st.integers(2, 9),
       style=st.sampled_from(["random", "rounded", "crossing", "scaled"]))
def test_candidates_equal_the_unfiltered_scan(seed, points, n, style):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, points)
    vals = rng.standard_normal((points, n)) + 1j * rng.standard_normal((points, n))
    if style == "rounded":
        # repeated values give Delta = 0 at single points and whole rows
        vals = np.round(vals, 0)
    elif style == "crossing":
        # branches that meet, or nearly meet, inside the grid
        centre = rng.uniform(0, 1, n)
        vals = (np.sqrt((grid[:, None] - centre) + 0j) * rng.choice([1, -1, 1j], n)
                + np.round(rng.standard_normal(n), 0))
    elif style == "scaled":
        vals *= 10.0 ** rng.integers(-150, 150, (1, n))
    res = SweepResult("g", grid, (), vals, np.zeros(vals.shape, dtype=bool),
                      np.ones(points - 1), ())
    bi, bj = np.triu_indices(n, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _candidates(res, bi, bj) == reference_candidates(res, bi, bj)


def test_candidates_on_the_example3_sweep():
    family = get_family("example3", levels=3).liouvillian_family("g")
    res = sweep(family, np.linspace(0.025, 0.225, 17))
    bi, bj = np.triu_indices(res.eigenvalues.shape[1], 1)
    found = _candidates(res, bi, bj)
    assert found and found == reference_candidates(res, bi, bj)


# ---------------------------------------------------------------------------
# assembly without np.kron
# ---------------------------------------------------------------------------

def factors(rng, d):
    real = rng.standard_normal((d, d))
    cplx = real + 1j * rng.standard_normal((d, d))
    signed = np.where(rng.uniform(size=(d, d)) < 0.3, -0.0, cplx)
    return {"real": real, "complex": cplx, "identity": np.eye(d), "signed zeros": signed}


@pytest.mark.parametrize("d", range(1, 13))
def test_tensor_is_np_kron_bitwise(d):
    rng = np.random.default_rng(d)
    da = 1 + d % 3
    for a in factors(rng, da).values():
        for b in factors(rng, d).values():
            a_op, b_op = Operator(HilbertSpace((da,)), a), Operator(HilbertSpace((d,)), b)
            assert bits(tensor(a_op, b_op).matrix) == bits(np.kron(a_op.matrix, b_op.matrix))


@pytest.mark.parametrize("d", range(1, 13))
def test_generator_is_the_kron_sum_bitwise(d):
    rng = np.random.default_rng(100 + d)
    fs = factors(rng, d)
    for k in fs.values():
        for jumps in ((), (fs["complex"],), (fs["real"], fs["signed zeros"]), (fs["identity"],)):
            assert bits(_generator(k, jumps)) == bits(kron_generator(k, jumps))


@pytest.mark.parametrize("name,fixed", [
    ("example1", {"gamma_minus": 0.4, "gamma_x": 0.7}),
    ("example2", {}),
    ("example3", {"levels": 3}),
    ("dephasing", {"levels": 5}),
])
def test_assemble_liouvillian_is_the_kron_sum_bitwise(name, fixed):
    model = get_family(name, **fixed).build()
    heff = effective_hamiltonian(model).matrix
    want = kron_generator(heff, model.folded_jump_matrices())
    assert bits(assemble_liouvillian(model).matrix) == bits(want)
