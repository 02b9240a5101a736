"""The array paths of the spectral and EP-search hot loops against the
loops they replace.

Each reference below is the per-element loop the library used before its
array form: the sequential cluster rule with its value rewrite, the greedy
argmax assignment, the per-run tie ordering, the unfiltered candidate scan
and np.kron assembly.  The library must return the same bits on inputs
built to sit on the edges of each rule: planted clusters and near-misses
around the tolerance, conjugate pairs and near-real values, rectangular
and tie-heavy overlap matrices, and Delta stacks with exact zeros.

The dense pipeline that the sector blocks replace is kept here as well:
the kron-sum L, sectors labelled on np.nonzero of the dense L, and the
column norms, sort, zero-sector QR, phase and support overlaps over the
n x n vector array.  So is the per-point path that whole-grid solves
replace: every grid point solved alone, and the branch tracker as the
dense greedy rule on the n x n vector arrays, point after point.
"""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lioueps.errors import ModelBuildError, SpectralError
from lioueps.ep_detect import (Eigensystem, SpectrumFamily, SweepResult, _candidates,
                               _greedy_assignment, _same_block, _track, overlap_matrix,
                               support_overlaps, sweep)
from lioueps.models import dephasing, example3, family_names, get_family
from lioueps.ops_core import HilbertSpace, Operator, tensor
from lioueps.spectral import (_as_blocks, _block_eig, _cluster_labels, _cluster_sort,
                              _components, _scatter, _sort_indices, liouvillian_eigensystem,
                              liouvillian_eigensystems, nhh_eigensystem, nhh_eigensystems)
from lioueps.superop import SuperOp, _generator, assemble_liouvillian, effective_hamiltonian

from conftest import random_lindblad_model

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


def reference_track(systems):
    """The branch order of sweep: the greedy loop on the dense vectors of
    each point, its rows in the branch order of the point before."""
    perms, quality = [np.arange(systems[0].size)], []
    for prev, cur in zip(systems, systems[1:]):
        perm, q = reference_greedy(prev.vectors[:, perms[-1]], cur.vectors)
        perms.append(perm)
        quality.append(q)
    return perms, quality


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


def reference_block_eig(mat):
    n = mat.shape[0]
    labels = _components(n, *np.nonzero(mat))
    sizes = np.bincount(labels, minlength=n)[labels]
    vals = np.empty(n, dtype=complex)
    vecs = np.zeros((n, n), dtype=complex)
    single = np.flatnonzero(sizes == 1)
    vals[single] = mat[single, single]
    vecs[single, single] = 1.0
    for root in np.unique(labels[sizes > 1]):
        idx = np.flatnonzero(labels == root)
        vals[idx], vecs[np.ix_(idx, idx)] = np.linalg.eig(mat[np.ix_(idx, idx)])
    return vals, vecs, labels


def reference_eigensystem(mat, zero_tol=1e-10):
    """liouvillian_eigensystem on the dense L and the n x n vector array.
    Returns its values, vectors and zero mask, and the sector labels."""
    vals, vecs, sectors = reference_block_eig(mat)
    norm_bound = np.sqrt(np.linalg.norm(mat, 1) * np.linalg.norm(mat, np.inf))
    tol = max(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    reference_cluster(vals, tol)
    vecs /= np.linalg.norm(vecs, axis=0)
    order = reference_sort_indices(np.abs(vals.real), vals.imag, vecs)
    vals, vecs = vals[order], vecs[:, order]
    zero_mask = np.abs(vals) <= zero_tol
    vecs[:, zero_mask] = np.linalg.qr(vecs[:, zero_mask])[0]
    piv = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=0)[None], axis=0)[0]
    vecs *= np.reshape([abs(p) / p if p != 0 else 1.0 for p in piv], piv.shape)
    return vals, vecs, zero_mask, sectors


def reference_support_overlaps(vecs):
    m, n = vecs.shape
    rows, cols = np.nonzero(vecs)
    labels = _components(m + n, rows, m + cols)
    nodes = np.argsort(labels, kind="stable")
    parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for comp in np.split(nodes, np.flatnonzero(np.diff(labels[nodes])) + 1):
        idx = comp[comp >= m] - m
        if idx.size < 2:
            continue
        sub = vecs[np.ix_(comp[comp < m], idx)]
        g = np.abs(sub.conj().T @ sub)
        iu, ju = np.triu_indices(idx.size, 1)
        parts.append((idx[iu], idx[ju], 0.5 * (g + g.T)[iu, ju]))
    i, j, ovl = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((j, i))
    return i[order], j[order], ovl[order]


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
        vals = reference_block_eig(mat)[0]
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
    liou = assemble_liouvillian(example3(1.0, g, 1.0, 0.5, levels=levels))
    n, mat = liou.dim ** 2, liou.matrix
    vals, blocks = _block_eig(n, liou.entries)
    got_vals, got_blocks, got_labels, got_order = _cluster_sort(n, liou.entries, vals, blocks)
    vals, vecs, _ = reference_block_eig(mat)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    norm_bound = np.sqrt(np.linalg.norm(mat, 1) * np.linalg.norm(mat, np.inf))
    tol = max(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    labels = reference_cluster(vals, tol)
    order = reference_sort_indices(np.abs(vals.real), vals.imag, vecs)
    assert np.bincount(labels).max() == largest
    for a, b in zip((got_vals, _scatter(got_blocks), got_labels, got_order),
                    (vals[order], vecs[:, order], labels[order], order)):
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
    assert bits(_sort_indices(primary, secondary, _as_blocks(vecs))) == bits(want)
    # the same columns split into sector blocks, one stack each, with the
    # entries off the blocks zeroed
    groups = min(m, n, 3)
    row_of = np.r_[np.arange(groups), rng.integers(0, groups, m - groups)]
    col_of = np.r_[np.arange(groups), rng.integers(0, groups, n - groups)]
    vecs[row_of[:, None] != col_of[None, :]] = 0
    blocks = [(np.flatnonzero(row_of == k)[None], np.flatnonzero(col_of == k)[None],
               vecs[np.ix_(row_of == k, col_of == k)][None]) for k in range(groups)]
    want = reference_sort_indices(primary, secondary, vecs)
    assert bits(_sort_indices(primary, secondary, blocks)) == bits(want)


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
    a, b = family.eigensystem(np.array([0.1, 0.1 + 0.2 / 32]))
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
    """Every listed entry is the kron sum's entry bit for bit, and every
    entry left out is 0 there.  An entry left out has a zero factor in
    every term, and with -0.0 factors the kron sum leaves -0.0 in some of
    them, where the scattered lists hold +0.0."""
    rng = np.random.default_rng(100 + d)
    fs = factors(rng, d)
    for k in fs.values():
        for jumps in ((), (fs["complex"],), (fs["real"], fs["signed zeros"]), (fs["identity"],)):
            rows, cols, vals = _generator(k, jumps)
            want = kron_generator(k, jumps)
            assert bits(vals) == bits(want[rows, cols])
            left_out = np.ones(want.shape, dtype=bool)
            left_out[rows, cols] = False
            assert np.all(want[left_out] == 0)
            assert np.all(np.diff(rows * want.shape[0] + cols) > 0)


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


# ---------------------------------------------------------------------------
# sector-native spectra against the dense pipeline
# ---------------------------------------------------------------------------

def assert_matches_the_dense_pipeline(model):
    """liouvillian_eigensystem and support_overlaps against the dense
    pipeline on the kron-sum L: the values, the zero mask and the overlap
    rows bit for bit, and the dense vectors view bit for bit on the stored
    blocks.  Off the blocks the dense vectors are 0, as +0.0 in the view;
    the dense phase rotation leaves -0.0 in some of them.  Returns the
    stored blocks and the sector labels of the dense L."""
    liou = assemble_liouvillian(model)
    got = liouvillian_eigensystem(liou)
    heff = effective_hamiltonian(model).matrix
    vals, vecs, zero_mask, sectors = reference_eigensystem(
        kron_generator(heff, model.folded_jump_matrices()))
    assert bits(got.values) == bits(vals)
    assert bits(got.zero_mask) == bits(zero_mask)
    # the blocks partition the rows and the columns
    for part in (0, 1):
        listed = np.concatenate([b[part].ravel() for b in got.blocks])
        assert np.array_equal(np.sort(listed), np.arange(vals.size))
    inside = np.zeros(vecs.shape, dtype=bool)
    for rows, cols, _ in got.blocks:
        inside[rows[:, :, None], cols[:, None, :]] = True
    view = got.vectors
    assert bits(view[inside]) == bits(vecs[inside])
    assert np.all(vecs[~inside] == 0) and not view[~inside].view(np.uint64).any()
    for a, b in zip(support_overlaps(got), reference_support_overlaps(vecs)):
        assert bits(a) == bits(b)
    return got.blocks, sectors


@pytest.mark.parametrize("model", [
    example3(1.0, 0.1, 1.0, 0.5, levels=3),
    example3(1.0, 0.125, 1.0, 0.5, levels=3),
    example3(1.0, 0.0625, 1.0, 0.5, levels=4),
    get_family("example1").build(),
    get_family("example1", gamma_minus=0.4, gamma_x=1.0).build(),
    get_family("example2").build(),
    get_family("example2", gamma_minus=4.0).build(),
    dephasing(1.0, 1.0, 5),
    dephasing(0.0, 1.0, 5),
    dephasing(1.3, 0.7, 30),
], ids=["example3-l3", "example3-l3-ep", "example3-l4-ep", "example1", "example1-ep",
        "example2", "example2-ep", "dephasing-l5", "dephasing-l5-degenerate", "dephasing-l30"])
def test_eigensystem_equals_the_dense_pipeline(model):
    assert_matches_the_dense_pipeline(model)


@pytest.mark.parametrize("levels", [3, 4])
def test_eigensystem_equals_the_dense_pipeline_where_supports_split(levels):
    """At g = 0 the modes decouple: supports split inside a sector."""
    blocks, sectors = assert_matches_the_dense_pipeline(example3(1.0, 0.0, 1.0, 0.5, levels))
    assert max(v.shape[2] for _, _, v in blocks) > 1


@pytest.mark.parametrize("levels", [3, 4])
def test_zero_sector_reaching_other_sectors_is_stored_whole(levels):
    """Zero rates close example3: L = -i[H, .] has a zero eigenvalue in
    several sectors, and the QR of the zero sector puts entries of up to
    1e-8 on rows of sectors that hold no zero column.  The blocks they
    reach are merged, so no entry is lost."""
    blocks, sectors = assert_matches_the_dense_pipeline(example3(1.0, 0.1, 0.0, 0.0, levels))
    spans = [np.unique(sectors[rows[t]]).size for rows, _, _ in blocks for t in range(len(rows))]
    assert max(spans) > 1


@ORACLE
@given(seed=st.integers(0, 2**32 - 1))
def test_eigensystem_equals_the_dense_pipeline_on_random_models(seed):
    assert_matches_the_dense_pipeline(random_lindblad_model(np.random.default_rng(seed)))


def test_eigensystem_and_overlaps_stay_within_the_sector_blocks():
    """example3 levels=6 (n = 1296): the sector blocks hold 135,954
    entries (2.2 MB), and the spectrum path with its overlap rows peaks
    below half of one n x n complex array."""
    family = get_family("example3", levels=6).liouvillian_family()
    tracemalloc.start()
    try:
        support_overlaps(family.eigensystem(np.array([0.1]))[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1296 * 1296 * 16 // 2


def assert_blocks_match(got, vals, vecs):
    """Values bit for bit; the dense vectors bit for bit on the stored
    blocks and 0 off them (as +0.0 in the view)."""
    assert bits(got.values) == bits(vals)
    inside = np.zeros(vecs.shape, dtype=bool)
    for rows, cols, _ in got.blocks:
        inside[rows[:, :, None], cols[:, None, :]] = True
    assert bits(got.vectors[inside]) == bits(vecs[inside])
    assert np.all(vecs[~inside] == 0) and not got.vectors[~inside].view(np.uint64).any()


@pytest.mark.parametrize("heff", [
    effective_hamiltonian(example3(1.0, 0.1, 1.0, 0.5, levels=4)).matrix,
    effective_hamiltonian(example3(1.0, 0.125, 1.0, 0.5, levels=4)).matrix,
    effective_hamiltonian(example3(1.0, 0.0, 1.0, 1.0, levels=3)).matrix,
    effective_hamiltonian(get_family("example2").build()).matrix,
    effective_hamiltonian(dephasing(0.0, 1.0, 5)).matrix,
], ids=["example3-l4", "example3-l4-ep", "example3-degenerate", "example2", "dephasing"])
def test_nhh_eigensystem_equals_the_dense_pipeline(heff):
    vals, vecs, _ = reference_block_eig(heff)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    order = reference_sort_indices(np.abs(vals.imag), vals.real, vecs)
    vecs = vecs[:, order]
    piv = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=0)[None], axis=0)[0]
    vecs *= np.reshape([abs(p) / p if p != 0 else 1.0 for p in piv], piv.shape)
    assert_blocks_match(nhh_eigensystem(heff), vals[order], vecs)


def test_dense_superop_lists_every_entry_but_positive_zeros():
    """A SuperOp made from a dense matrix lists its -0.0 entries too, so
    the lists give the matrix back bit for bit and the sectors see the
    dense blocks, signed zeros included."""
    mat = kron_generator(effective_hamiltonian(example3(1.0, 0.1, 1.0, 0.5, 3)).matrix)
    mat[np.abs(mat) < 1.5] *= -1.0
    op = SuperOp(HilbertSpace((9,)), mat)
    rows, cols, vals = op.entries
    back = np.zeros_like(mat)
    back[rows, cols] = vals
    assert bits(back) == bits(mat) and (mat[rows, cols] == 0).any()
    got_vals, blocks = _block_eig(81, op.entries)
    want_vals, want_vecs, _ = reference_block_eig(mat)
    assert bits(got_vals) == bits(want_vals)
    assert bits(_scatter(blocks)) == bits(want_vecs)


# ---------------------------------------------------------------------------
# whole-grid solves against each point alone
# ---------------------------------------------------------------------------

def assert_same_system(got, want):
    """Values, zero mask and every stored block (rows, columns, vectors)
    bit for bit, blocks in the same order."""
    assert bits(got.values) == bits(want.values)
    assert bits(got.zero_mask) == bits(want.zero_mask)
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        for x, y in zip(a, b):
            assert bits(x) == bits(y)


def assert_grid_equals_each_point(family, grid):
    systems = family.eigensystem(np.asarray(grid))
    assert len(systems) == len(grid)
    for g, system in zip(grid, systems):
        assert_same_system(system, family.eigensystem(np.array([g]))[0])
    return systems


GRIDS = {"example1": np.linspace(0.0, 4.0, 9), "example2": np.linspace(0.5, 5.0, 10),
         "example3": np.linspace(0.0, 0.25, 9), "dephasing": np.linspace(0.5, 1.5, 5)}


@pytest.mark.parametrize("operator", ["liouvillian", "nhh"])
@pytest.mark.parametrize("name", family_names())
def test_grid_eigensystems_equal_each_point(name, operator):
    """Every bundled family on a grid through its EPs (and g = 0 for
    example3): one call for the grid gives each point's eigensystem."""
    family = get_family(name)
    spec = family.nhh_family() if operator == "nhh" else family.liouvillian_family()
    assert_grid_equals_each_point(spec, GRIDS[name])


@pytest.mark.parametrize("operator", ["liouvillian", "nhh"])
def test_grid_eigensystems_where_the_sectors_change(operator):
    """example3 levels=3 through g = 0, where the sectors split: a sector
    size that only g = 0 has is stacked with no other point's."""
    family = get_family("example3", levels=3)
    spec = family.nhh_family() if operator == "nhh" else family.liouvillian_family()
    systems = assert_grid_equals_each_point(spec, np.linspace(-0.1, 0.1, 5))
    shapes = [sorted(v.shape[1:] for _, _, v in s.blocks) for s in systems]
    assert shapes[2] != shapes[0] == shapes[1] == shapes[3] == shapes[4]


def test_grid_eigensystems_of_a_closed_model():
    """Zero rates: the zero-sector basis of every point but g = 0 reaches
    other sectors, so blocks are merged, and g = 0 (a diagonal L) has more
    zero columns than the rest, so its zero block has a shape of its own."""
    family = get_family("example3", levels=3, gamma_a=0.0, gamma_b=0.0).liouvillian_family()
    systems = assert_grid_equals_each_point(family, np.linspace(-0.1, 0.2, 4))
    assert systems[1].zero_mask.sum() > systems[0].zero_mask.sum()


def test_grid_keeps_each_points_tolerance_and_clusters():
    """The cluster tolerance grows with ||L||: at omega = 1e-6 the pair
    -0.7 +- 1e-6 i stays two values of a conjugate pair, at omega = 1e4
    the tolerance (6e-6) would make it one real value.  Repeated points
    have equal values, which must not form clusters across points (the
    mean of three copies of -0.7 is not -0.7)."""
    small = assemble_liouvillian(dephasing(1e-6, 1.4, 2))
    lious = [small, assemble_liouvillian(dephasing(1e4, 1.4, 2)), small, small]
    for got, liou in zip(liouvillian_eigensystems(lious), lious):
        assert_same_system(got, liouvillian_eigensystem(liou))
    assert np.abs(liouvillian_eigensystem(small).values.imag).max() == 1e-6


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 4))
def test_grid_eigensystems_of_random_models(seed, points):
    """Random models of different sizes, solved as one grid, against each
    alone: the Liouvillians and the effective Hamiltonians.  The first
    model comes twice."""
    rng = np.random.default_rng(seed)
    models = [random_lindblad_model(rng) for _ in range(points)]
    models.append(models[0])
    lious = [assemble_liouvillian(m) for m in models]
    for got, liou in zip(liouvillian_eigensystems(lious), lious):
        assert_same_system(got, liouvillian_eigensystem(liou))
    heffs = [effective_hamiltonian(m).matrix for m in models]
    for got, heff in zip(nhh_eigensystems(heffs), heffs):
        assert_same_system(got, nhh_eigensystem(heff))


def test_a_failing_point_names_its_grid_index():
    """An error raised for one grid point carries its index, from the
    model build, the trace row, the zero sector and the eig."""
    grid = np.array([1.0, 0.0, -1.0])
    with pytest.raises(ModelBuildError, match=re.escape(f"(at grid index 2, gamma_minus={grid[2]!r})")):
        sweep(get_family("example2").liouvillian_family(), grid)

    ok = assemble_liouvillian(get_family("example2").build())
    exact = assemble_liouvillian(dephasing(1.0, 1.0, 2))
    bent = SuperOp(ok.space, ok.matrix + np.diag([0.0, 0.0, 0.0, 0.5]))
    nan = np.array([[1.0, np.nan], [0.0, 2.0]])
    grid = np.arange(3.0)
    for solve, items, error, text, bad in [
            (liouvillian_eigensystems, [ok, ok, bent], SpectralError, "trace row", 2),
            (lambda ops: liouvillian_eigensystems(ops, zero_tol=0.0), [exact, ok, exact],
             SpectralError, "zero_tol", 1),
            (nhh_eigensystems, [np.eye(2), nan, nan], ValueError, "infs or NaNs", 1)]:
        spec = SpectrumFamily("k", lambda values: solve([items[int(v)] for v in values]),
                              lambda value: items[int(value)])
        with pytest.raises(error, match=text + ".*" + re.escape(
                f"(at grid index {bad}, k={grid[bad]!r})")):
            sweep(spec, grid)


# ---------------------------------------------------------------------------
# the block tracker against the dense greedy rule
# ---------------------------------------------------------------------------

@st.composite
def block_systems(draw):
    """Eigensystems of a few grid points whose vectors live on random
    sector blocks, the same at every point or drawn per point, with
    entries in {0, +-1/2, +-i/2, +-1}: every overlap is exact, so the
    block and the dense products agree bit for bit, and equal overlaps
    (ties in a row, in a column, and exact zeros) are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, points = draw(st.integers(1, 12)), draw(st.integers(2, 5))
    fixed = draw(st.booleans())
    entries = np.array([0, 0.5, -0.5, 0.5j, -0.5j, 1])

    def sectors():
        rows = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, rng.integers(0, 4)),
                                  replace=False))
        return [np.sort(part) for part in np.split(rows, cuts)]

    layout = sectors()
    systems = []
    for _ in range(points):
        parts = layout if fixed else sectors()
        cols = rng.permutation(n)
        blocks, at = [], 0
        for rows in parts:
            c = cols[at:at + rows.size]
            at += rows.size
            v = entries[rng.integers(0, entries.size, (rows.size, rows.size))]
            blocks.append((rows[None], c[None], v[None]))
        if draw(st.booleans()):
            # blocks of one shape as one stack, as the eigensolver stores them
            by_shape = {}
            for r, c, v in blocks:
                by_shape.setdefault(v.shape, []).append((r, c, v))
            blocks = [tuple(np.concatenate(x) for x in zip(*group)) for group in by_shape.values()]
        systems.append(Eigensystem(np.zeros(n, dtype=complex), tuple(blocks),
                                   np.zeros(n, dtype=bool)))
    return systems


@ORACLE
@given(systems=block_systems())
def test_track_equals_the_dense_greedy_loop(systems):
    perms, quality, breaks = _track(systems)
    want, overlaps = reference_track(systems)
    for got, ref in zip(perms, want):
        assert bits(np.asarray(got, dtype=int)) == bits(np.asarray(ref, dtype=int))
    assert bits(quality) == bits(np.array([q.min() for q in overlaps]))
    assert breaks == tuple((k, int(i)) for k, q in enumerate(overlaps)
                           for i in np.flatnonzero(q < 0.5))


@pytest.mark.parametrize("name, fixed, operator, grid", [
    ("example2", {}, "liouvillian", np.linspace(0.5, 5.0, 41)),
    ("example2", {}, "nhh", np.linspace(0.5, 5.0, 41)),
    ("example1", {}, "liouvillian", np.linspace(0.0, 4.0, 41)),
    ("example3", {"levels": 3}, "liouvillian", np.linspace(0.0, 0.3, 41)),
    ("example3", {"levels": 3}, "nhh", np.linspace(0.0, 0.3, 41)),
    ("example3", {"levels": 3, "gamma_a": 0.0, "gamma_b": 0.0}, "liouvillian",
     np.linspace(0.0, 0.3, 21)),
], ids=["example2", "example2-nhh", "example1", "example3-l3", "example3-l3-nhh",
        "example3-l3-closed"])
def test_sweep_branch_order_equals_the_dense_tracker(name, fixed, operator, grid):
    """The branch order of sweep, and so every branch_id it writes, is the
    dense tracker's on these sweeps.  The block overlaps differ from the
    dense product in the last bit, which decides only near-ties: the
    example2 Liouvillian sweep has one at 3.9875 -> 4.1, where a conjugate
    pair leaves the real axis."""
    family = get_family(name, **fixed)
    spec = family.nhh_family() if operator == "nhh" else family.liouvillian_family()
    res = sweep(spec, grid)
    raw = spec.eigensystem(grid)
    want, overlaps = reference_track(raw)
    for k, (system, perm) in enumerate(zip(raw, want)):
        assert bits(res.eigenvalues[k]) == bits(system.values[perm])
        assert bits(res.systems[k].vectors) == bits(system.vectors[:, perm])
    np.testing.assert_allclose(res.matching_quality, [q.min() for q in overlaps], rtol=1e-14)


def test_sweep_holds_no_dense_vectors():
    """A 5-point example3 levels=6 sweep (n = 1296) keeps every point in
    its sector blocks: its peak stays below half of one n x n complex
    array per grid point."""
    family = get_family("example3", levels=6).liouvillian_family()
    tracemalloc.start()
    try:
        sweep(family, np.linspace(0.05, 0.15, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 1296 * 1296 * 16 // 2


def test_candidate_pairs_share_a_sector_block():
    """example3 levels=3 on a bracket of width 0.2 centred on its EP (the
    ep-locate-l3 benchmark config at seed 0): a pair of branches that
    never shares a stored block has overlap exactly 0 at every grid point,
    and the candidate scan over the pairs that do is the full scan
    without the others (3,160 pairs -> 495, 939 cells -> 628)."""
    omega, gamma_a, gamma_b = 1.065791612069049, 1.0099521614821052, 0.3915108573095691
    family = get_family("example3", levels=3, omega=omega, gamma_a=gamma_a, gamma_b=gamma_b)
    lo = (gamma_a - gamma_b) / 4 - 0.1
    res = sweep(family.liouvillian_family(), np.linspace(lo, lo + 0.2, 33))
    same = _same_block(res.systems)
    for system in res.systems:
        assert np.all(overlap_matrix(system)[~same] == 0)
    steady = res.zero_mask.any(axis=0)
    free = np.triu(~(steady[:, None] | steady[None, :]), 1)
    bi, bj = np.nonzero(free)
    si, sj = np.nonzero(free & same)
    everything = _candidates(res, bi, bj)
    kept = _candidates(res, si, sj)
    assert kept == [c for c in everything if same[c[0], c[1]]]
    assert (bi.size, si.size, len(everything), len(kept)) == (3160, 495, 939, 628)
    assert kept[0] == everything[0] == (1, 6, 16)
