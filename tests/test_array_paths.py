"""The array paths of the spectral and EP-search hot loops against the
loops they replace.

Each reference below is the per-element loop the library used before its
array form: the sequential cluster rule with its value rewrite, the greedy
argmax assignment, the per-run tie ordering, the unfiltered candidate scan
and the per-cell one, and np.kron assembly.  The library must return the
same bits on inputs built to sit on the edges of each rule: planted
clusters and near-misses around the tolerance, conjugate pairs and
near-real values, rectangular and tie-heavy overlap matrices, and Delta
stacks with exact zeros.

The dense pipeline that the sector blocks replace is kept here as well:
the kron-sum L, sectors labelled on np.nonzero of the dense L, and the
column norms, sort, zero-sector QR, phase and support overlaps over the
n x n vector array.  So is the per-point path that whole-grid solves
replace: every grid point solved alone, and the branch tracker as the
dense greedy rule on the n x n vector arrays, point after point.

The trajectory stepper's jump search is checked against the bisection
over the propagator powers that it replaces, and its norm and collapse
kernels against the np.linalg.norm form and the cumulative-weight channel
pick, for the same jump records and the same bits of every state; the
one-pass ensemble statistics are checked against the einsum formulas of
the mean density and of <psi|O|psi>.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from lioueps.errors import ModelBuildError, SpectralError
from lioueps import ep_detect
from lioueps.ep_detect import (Eigensystem, SpectrumFamily, SweepResult, _candidates,
                               _greedy_assignment, _muller, _parabola_root, _same_block, _track,
                               overlap_matrix, support_overlaps, sweep)
from lioueps.models import dephasing, example3, family_names, get_family
from lioueps.ops_core import HilbertSpace, Operator, tensor
from lioueps import dynamics, spectral
from lioueps.sectors import SCC_MIN_SIZE
from lioueps.dynamics import trajectories
from lioueps.spectral import (NhhSpectrum, Spectrum, _as_blocks, _block_eig, _cluster_chain,
                              _cluster_labels, _cluster_sort, _components, _lex_order, _scatter,
                              _sort_indices, _support_rows, _tie_batches, analyze_nhh,
                              liouvillian_eigensystem, liouvillian_eigensystems, nhh_eigensystem,
                              nhh_eigensystems)
from lioueps import superop
from lioueps.superop import (SuperOp, _assemble_grid, _generator, assemble_liouvillian,
                             effective_hamiltonian)

from conftest import conjugation_key, ep_locate_l3_model, random_lindblad_model

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
        # the free values within tol of the conjugate of some member
        mirrors = [k for k in np.flatnonzero(labels < 0)
                   if any(abs(vals[k] - np.conj(vals[m])) <= tol for m in members)]
        if abs(mean.imag) <= tol:
            labels[mirrors] = labels[members[0]]
            vals[np.r_[members, mirrors].astype(int)] = mean.real
            continue
        vals[members] = mean
        near = np.flatnonzero((labels < 0) & (np.abs(vals - mean.conjugate()) <= tol))
        partners = np.union1d(near, mirrors).astype(int)
        if partners.size:
            labels[partners] = n_clusters
            vals[partners] = mean.conjugate()
            n_clusters += 1
    return labels


def reference_sort_indices(primary, secondary, vecs, tol=None):
    if tol is None:
        order = np.lexsort((secondary, primary))
    else:
        # runs of primary keys, each within tol of the one before
        run, up = np.zeros(primary.size, dtype=np.intp), np.argsort(primary, kind="stable")
        for k in range(1, up.size):
            run[up[k]] = run[up[k - 1]] + (primary[up[k]] - primary[up[k - 1]] > tol)
        order = np.lexsort((primary, secondary, run))
    p, q = primary[order], secondary[order]
    tied = np.r_[0, (p[1:] == p[:-1]) & (q[1:] == q[:-1]), 0].astype(np.int8)
    for start, stop in np.flatnonzero(np.diff(tied)).reshape(-1, 2):
        group = order[start:stop + 1]
        rows = np.ascontiguousarray(vecs[:, group].T).view(float)
        varying = (rows != rows[0]).any(axis=0)
        if varying.any():
            order[start:stop + 1] = group[np.lexsort(rows[:, varying].T[::-1])]
    return order


def one_shot_sort_indices(primary, secondary, blocks, point=None):
    """_sort_indices with every tie broken in one lexsort, all tied
    columns' keys padded to the widest union of supports at once."""
    if point is None:
        point = np.zeros(primary.size, dtype=np.intp)
    order = np.lexsort((secondary, primary, point))
    p, q, g = primary[order], secondary[order], point[order]
    after = np.r_[False, (p[1:] == p[:-1]) & (q[1:] == q[:-1]) & (g[1:] == g[:-1])]
    at = np.flatnonzero(after | np.r_[after[1:], False])
    if at.size:
        tie = np.cumsum(~after[at])
        keys = _support_rows(blocks, order[at], tie)
        order[at] = order[at][np.lexsort((*keys.T[::-1], tie))]
    return order


def reference_greedy(prev_vecs, cur_vecs):
    """The argmax loop on the overlaps rounded to 12 decimals, with the
    unrounded overlap of each pick."""
    n = prev_vecs.shape[1]
    ovl = np.abs(prev_vecs.conj().T @ cur_vecs)
    perm = np.full(n, -1, dtype=int)
    quality = np.zeros(n)
    work = np.round(ovl, 12)
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


def per_cell_candidates(res, bi, bj):
    """The candidate scan one grid cell at a time, with the |Delta| filter,
    holding Delta for three grid points at a time."""
    last = res.grid.size - 2
    found = []

    def delta(k):
        return (res.eigenvalues[k, bi] - res.eigenvalues[k, bj]) ** 2

    prev, cur = delta(0), delta(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, last + 1):
            nxt = delta(k + 1)
            a, b = _muller((-1.0, 1.0, 0.0), (prev, nxt, cur))
            p = np.flatnonzero(~(np.abs(cur) > 4.0 * (np.abs(b) + np.abs(a))))
            t = _parabola_root(0.0, cur[p], a[p], b[p])
            inside = ((t.real >= (-1.0 if k == 1 else -0.5))
                      & (t.real <= (1.0 if k == last else 0.5)) & (np.abs(t.imag) <= 1.0))
            hit = (inside | (cur[p] == 0)) & ((prev[p] != 0) | (nxt[p] != 0) | (cur[p] != 0))
            found += [(int(bi[q]), int(bj[q]), k) for q in p[hit]]
            prev, cur = cur, nxt
    return sorted(found)


def kron_generator(k, jumps=()):
    eye = np.eye(k.shape[0])
    mat = np.kron(-1j * k, eye)
    mat += np.kron(eye, 1j * k.conj())
    for g in jumps:
        mat += np.kron(g, g.conj())
    return mat


def reference_block_eig(mat, mirror=False):
    """eig of each sector of the dense matrix, labelled on np.nonzero.

    With mirror (a Liouvillian), each orbit of sectors under the swap P of
    vec(|m><n|) and vec(|n><m|) is solved once: of a partner pair, the
    sector with the smaller first index by the complex eig, the other as
    its conjugate with the rows moved by P; a self-conjugate sector by the
    real eig of W T^dag M T, T the dense change to the basis |m><n| +
    |n><m|, i|m><n| - i|n><m|, |m><m| and W = T^-1 T^-dag, and each
    eigenvector mapped back pair of entries by pair of entries."""
    n = mat.shape[0]
    labels = _components(n, *np.nonzero(mat))
    vals = np.empty(n, dtype=complex)
    vecs = np.zeros((n, n), dtype=complex)
    p = np.arange(n).reshape(math.isqrt(n), -1).T.ravel() if mirror else np.arange(n)
    for root in np.unique(labels):
        idx = np.flatnonzero(labels == root)
        mate = labels[p[root]] if mirror else n
        if mate < root:
            continue
        block = mat[np.ix_(idx, idx)]
        if mate > root:
            if idx.size == 1:
                vals[idx], vecs[idx, idx] = block[0], 1.0
            else:
                vals[idx], vecs[np.ix_(idx, idx)] = np.linalg.eig(block)
            if mirror:
                pidx = np.flatnonzero(labels == mate)
                vals[pidx] = vals[idx].conj()
                vecs[np.ix_(pidx, pidx)] = vecs[np.ix_(p[pidx], idx)].conj() if idx.size > 1 else 1.0
            continue
        pos = {u: j for j, u in enumerate(idx)}
        t, w, pairs = np.zeros(block.shape, dtype=complex), np.ones(idx.size), []
        for j, u in enumerate(idx):
            k = pos[p[u]]
            if u < p[u]:
                t[j, j] = t[k, j] = 1.0
                t[j, k], t[k, k] = 1j, -1j
                w[[j, k]] = 0.5
                pairs.append((j, k))
            elif u == p[u]:
                t[j, j] = 1.0
        real = ((w[:, None] * t.conj().T) @ (block @ t)).real + 0.0
        vals[idx], y = np.linalg.eig(real)
        y = y.astype(complex)
        x = y.copy()
        for j, k in pairs:
            # x_j = y_j + i y_k, and x_k = conj(conj(y_j) + i conj(y_k))
            x.real[j], x.imag[j] = y[j].real - y[k].imag, y[j].imag + y[k].real
            a, b = y[j].conj(), y[k].conj()
            x.real[k], x.imag[k] = a.real - b.imag, -(a.imag + b.real)
        vecs[np.ix_(idx, idx)] = x
    return vals, vecs, labels


def assert_close_to_the_dense_eig(mat, vals, vecs, dense_vals, dense_vecs):
    """Eigenpairs (vals, vecs) of a solve that splits sectors against the
    dense eig of each sector (reference_block_eig): the values as a
    multiset within 1e-12 |L|_1, and the worst |L x - lambda x| / |x| no
    larger than the dense one's."""
    dist = np.abs(vals[:, None] - dense_vals[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-12 * np.linalg.norm(mat, 1)
    worst = [(np.linalg.norm(mat @ x - x * v, axis=0) / np.linalg.norm(x, axis=0)).max()
             for v, x in ((vals, vecs), (dense_vals, dense_vecs))]
    assert worst[0] <= worst[1]


def reference_eigensystem(mat, zero_tol=1e-10, solve=None):
    """liouvillian_eigensystem on the dense L and the n x n vector array,
    from the eigenpairs solve = (vals, vecs) when given, else from
    reference_block_eig.  Returns its values, vectors and zero mask, and
    the sector labels.  The zero columns of each sector that holds two or
    more are replaced by the Q of their QR on that sector's rows."""
    vals, vecs, sectors = reference_block_eig(mat, mirror=True)
    if solve is not None:
        vals, vecs = (x.copy() for x in solve)
    norm_bound = np.sqrt(np.linalg.norm(mat, 1) * np.linalg.norm(mat, np.inf))
    tol = max(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    reference_cluster(vals, tol)
    vecs /= np.linalg.norm(vecs, axis=0)
    order = reference_sort_indices(np.abs(vals.real), vals.imag, vecs, tol)
    vals, vecs = vals[order], vecs[:, order]
    zero_mask = np.abs(vals) <= zero_tol
    for s in np.unique(sectors[order][zero_mask]):
        cols = np.flatnonzero(zero_mask & (sectors[order] == s))
        if cols.size > 1:
            part = np.ix_(np.flatnonzero(sectors == s), cols)
            vecs[part] = np.linalg.qr(vecs[part])[0]
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


@ORACLE
@given(vals=planted_spectra())
def test_cluster_chain_is_the_sequential_rule(vals):
    """The member-by-member loop that a chained group runs, here on a
    whole planted spectrum as one group: the sequential rule's values and
    cluster numbers."""
    want = vals.copy()
    labels = reference_cluster(want, TOL)
    key = 2 * np.arange(vals.size)
    _cluster_chain(vals, key, np.arange(vals.size), TOL)
    assert bits(np.unique(key, return_inverse=True)[1]) == bits(labels)
    assert bits(vals) == bits(want)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_cluster_labels_on_signed_zeros(count):
    """Every spectrum of one to three values from a set of signed zeros,
    units and tolerances: the means of one to three members keep
    np.mean's signs, and a seed exactly tol off the real axis takes no
    partner.  Triples draw from signed zeros and tol only."""
    parts = (0.0, -0.0, 1.0, TOL, -TOL) if count < 3 else (0.0, -0.0, TOL)
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


def test_a_real_value_between_a_conjugate_pair_joins_both_members():
    """example3 at omega = 3e-8: -1.8 +- 9e-8 i sit in two partner
    sectors and -1.8 in the self-conjugate one, all within the cluster
    tolerance (1.4e-7) of each other or of the real axis.  The seed
    -1.8 + 9e-8 i claims -1.8, their mean is made real, and the cluster
    takes -1.8 - 9e-8 i too, as the mirror of a member: one cluster, one
    value.  Without that, the pair's other member was made real alone as
    -1.7999999999999998, with an eigenmatrix that is not Hermitian."""
    liou = assemble_liouvillian(example3(3e-8, 0.1, 1.0, 0.5, levels=3))
    vals, blocks = _block_eig(81, liou.entries, partner=spectral._partner([9]))
    raw = np.flatnonzero(np.abs(vals + 1.8) < 1e-6)
    assert np.allclose(np.sort(vals[raw].imag), [-9e-8, 0.0, 9e-8], rtol=1e-6, atol=0.0)
    got, _, labels, order = _cluster_sort(81, liou.entries, vals, blocks)
    at = np.isin(order, raw)
    assert np.unique(labels[at]).size == 1
    assert bits(got[at]) == bits(np.full(3, got[at][0])) and got[at][0].imag == 0
    spectrum = liouvillian_eigensystem(liou).eigenvalues
    assert np.count_nonzero(spectrum == got[at][0]) == 3


@ORACLE
@given(seed=st.integers(0, 2**32 - 1))
def test_clustered_spectra_are_closed_under_conjugation(seed):
    liou = assemble_liouvillian(random_lindblad_model(np.random.default_rng(seed)))
    vals = liouvillian_eigensystem(liou).eigenvalues
    assert conjugation_key(vals) == conjugation_key(vals.conj())


@pytest.mark.parametrize("levels,g,largest", [(3, 0.125, 2), (4, 0.125, 4), (3, 0.0, 3),
                                               (4, 0.0625, 4)])
def test_cluster_sort_equals_the_loops_at_exceptional_points(levels, g, largest):
    """example3 at its EPs and at g = 0: clusters of three and more, and
    ties that reach the eigenvector tiebreak."""
    liou = assemble_liouvillian(example3(1.0, g, 1.0, 0.5, levels=levels))
    n, mat = liou.dim ** 2, liou.matrix
    vals, blocks = _block_eig(n, liou.entries, factors=[liou.factors])
    # the loops start from the same eigenpairs: the dense eig of each
    # sector's, bit for bit, unless a sector is split into the units that
    # H_eff induces (levels=4 has sectors of 44 and 40 indices)
    ref_vals, ref_vecs, sectors = reference_block_eig(mat)
    if np.bincount(sectors).max() < SCC_MIN_SIZE:
        assert bits(vals) == bits(ref_vals) and bits(_scatter(blocks)) == bits(ref_vecs)
    else:
        assert_close_to_the_dense_eig(mat, vals, _scatter(blocks), ref_vals, ref_vecs)
    want_vals, vecs = vals.copy(), _scatter(blocks)
    got_vals, got_blocks, got_labels, got_order = _cluster_sort(n, liou.entries, vals, blocks)
    vals, vecs = want_vals, vecs / np.linalg.norm(vecs, axis=0)
    norm_bound = np.sqrt(np.linalg.norm(mat, 1) * np.linalg.norm(mat, np.inf))
    tol = max(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    labels = reference_cluster(vals, tol)
    order = reference_sort_indices(np.abs(vals.real), vals.imag, vecs, tol)
    assert np.bincount(labels).max() == largest
    for a, b in zip((got_vals, _scatter(got_blocks), got_labels, got_order),
                    (vals[order], vecs[:, order], labels[order], order)):
        assert bits(a) == bits(b)


# ---------------------------------------------------------------------------
# tie ordering
# ---------------------------------------------------------------------------

@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 6),
       levels=st.integers(1, 4), budget=st.integers(1, 200))
def test_sort_indices_equals_the_per_run_lexsort(seed, n, m, levels, budget):
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
    # the ties broken in one lexsort, and in batches of at most budget entries
    assert bits(one_shot_sort_indices(primary, secondary, blocks)) == bits(want)
    with mock.patch.object(spectral, "TIE_BATCH_ENTRIES", budget):
        assert bits(_sort_indices(primary, secondary, blocks)) == bits(want)


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60))
def test_lex_order_equals_lexsort(seed, n):
    """_lex_order's stable sort of complex keys is np.lexsort's order,
    with exact ties, signed zeros and grid points."""
    rng = np.random.default_rng(seed)
    major = rng.integers(-2, 3, n) * rng.choice([1.0, 0.5, -0.0], n)
    minor = rng.integers(-1, 2, n) * rng.choice([1.0, 0.0, -0.0], n)
    point = rng.integers(0, 3, n)
    assert np.array_equal(_lex_order(major, minor), np.lexsort((minor, major)))
    assert np.array_equal(_lex_order(major, minor, point), np.lexsort((minor, major, point)))


def tied_columns(primary, secondary):
    """The tied columns in sorted order and their tie numbers, as
    _sort_indices finds them."""
    order = np.lexsort((secondary, primary))
    p, q = primary[order], secondary[order]
    after = np.r_[False, (p[1:] == p[:-1]) & (q[1:] == q[:-1])]
    at = np.flatnonzero(after | np.r_[after[1:], False])
    return order[at], np.cumsum(~after[at])


@pytest.mark.parametrize("model", [dephasing(1.0, 1.0, 12), dephasing(0.0, 1.0, 8),
                                   example3(1.0, 0.1, 0.0, 0.0, levels=5),
                                   example3(1.0, 0.0, 1.0, 0.5, levels=4)],
                         ids=["dephasing", "dephasing-degenerate", "example3-closed",
                              "example3-g0"])
def test_batched_tie_break_equals_one_lexsort(model):
    """Spectra with hundreds of tied columns, broken in batches as small
    as one tie and as large as several; the sectors of example3 are split
    as the spectral commands split them (the (H_eff, Gamma) factors
    given)."""
    liou = assemble_liouvillian(model)
    n = liou.dim ** 2
    vals, blocks = _block_eig(n, liou.entries, factors=[liou.factors])
    _cluster_labels(vals, 1e-7)
    for _, _, v in blocks:
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    primary, secondary = np.abs(vals.real), vals.imag
    cols, tie = tied_columns(primary, secondary)
    assert cols.size >= 60
    want = one_shot_sort_indices(primary, secondary, blocks)
    assert bits(_sort_indices(primary, secondary, blocks)) == bits(want)
    for budget in (1, 37, 400):
        with mock.patch.object(spectral, "TIE_BATCH_ENTRIES", budget):
            assert len(_tie_batches(blocks, cols, tie)) > 1
            assert bits(_sort_indices(primary, secondary, blocks)) == bits(want)


def test_batched_tie_break_memory():
    """example3 levels=8, g = 0.1 (n = 4096), its sectors split as the
    spectral commands split them, has 1,380 tied columns in 331 ties,
    with supports of up to 343 rows: broken in one lexsort, the tie keys
    and their gather peak 27.1 MB above the sector blocks (16 MB; 34.7 MB
    with every sector solved whole).  In batches of at most
    TIE_BATCH_ENTRIES padded entries the tie-break stays under 15.5 MB."""
    liou = assemble_liouvillian(example3(1.0, 0.1, 1.0, 0.5, levels=8))
    n = liou.dim ** 2
    vals, blocks = _block_eig(n, liou.entries, factors=[liou.factors])
    _cluster_labels(vals, 1e-7)
    primary, secondary = np.abs(vals.real), vals.imag
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _sort_indices(primary, secondary, blocks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 15.5e6


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


def searched_pairs(res):
    """The pairs that locate_ep scans: non-steady, sharing a block somewhere."""
    steady = res.zero_mask.any(axis=0)
    return np.nonzero(np.triu(_same_block(res.systems) & ~(steady[:, None] | steady[None, :]), 1))


@pytest.mark.parametrize("seed", range(6))
def test_whole_grid_scan_equals_the_per_cell_loop(seed):
    family, lo = ep_locate_l3_model(seed)
    res = sweep(family.liouvillian_family(), np.linspace(lo, lo + 0.2, 33))
    bi, bj = searched_pairs(res)
    found = _candidates(res, bi, bj)
    assert len(found) > 500 and found == per_cell_candidates(res, bi, bj)


def test_whole_grid_scan_in_slabs_at_levels_5():
    # 18,686 pairs over 33 points: Delta is scanned in about 19 slabs
    res = sweep(get_family("example3", levels=5).liouvillian_family("g"),
                np.linspace(0.03, 0.23, 33))
    bi, bj = searched_pairs(res)
    assert bi.size * res.grid.size > 10 * ep_detect.SCAN_BATCH_ENTRIES
    found = _candidates(res, bi, bj)
    assert len(found) == 4843 and found == per_cell_candidates(res, bi, bj)


@pytest.mark.parametrize("case", ["zero-at-a-point", "zero-on-three-points", "b-near-1e154",
                                  "one-pair-per-slab"])
def test_whole_grid_scan_on_edge_cases(case, monkeypatch):
    grid = np.linspace(0.0, 1.0, 11)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((11, 6)) + 1j * rng.standard_normal((11, 6))
    if case == "zero-at-a-point":
        # branches 0 and 1 cross at grid point 5, 2 and 3 touch there
        vals[:, 1] = vals[:, 0] + (grid - 0.5)
        vals[:, 3] = vals[:, 2] + (grid - 0.5) ** 2
    elif case == "zero-on-three-points":
        vals[4:7, 1] = vals[4:7, 0]
        vals[[2, 3, 4, 7], 3] = vals[[2, 3, 4, 7], 2]
    elif case == "b-near-1e154":
        # Delta near 1e154 at every scale below and above where b * b overflows
        vals *= 10.0 ** np.linspace(76.0, 78.0, 6)
    else:
        monkeypatch.setattr(ep_detect, "SCAN_BATCH_ENTRIES", 1)
        vals = np.round(vals, 0)
    res = SweepResult("g", grid, (), vals, np.zeros(vals.shape, dtype=bool), np.ones(10), ())
    bi, bj = np.triu_indices(6, 1)
    with np.errstate(over="ignore"):
        found = _candidates(res, bi, bj)
        assert found == per_cell_candidates(res, bi, bj)
    if case == "zero-at-a-point":
        assert (0, 1, 5) in found and (2, 3, 5) in found
    elif case == "zero-on-three-points":
        # the middle of three zeros is degenerate, the ends of a run are hits
        assert {(0, 1, 4), (0, 1, 6), (2, 3, 2), (2, 3, 4), (2, 3, 7)} <= set(found)
        assert (0, 1, 5) not in found and (2, 3, 3) not in found


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
    """At every point of a stack, every listed entry is the point's kron
    sum entry bit for bit, and every entry left out is 0 there.  An entry
    left out has a zero factor in every term, and with -0.0 factors the
    kron sum leaves -0.0 in some of them, where the scattered lists hold
    +0.0.  The points differ in their sparsity (an all-zero K, the
    identity, dense and signed-zero factors), and point p's lists are its
    own offset by p D^2, in row-major order over the stack."""
    rng = np.random.default_rng(100 + d)
    fs = list(factors(rng, d).values()) + [np.zeros((d, d))]
    n, points = d * d, len(fs)
    for m in range(3):
        jumps = [[fs[(p + t + 1) % points] for t in range(m)] for p in range(points)]
        rows, cols, vals = _generator(np.array(fs, dtype=complex),
                                      np.array(jumps, dtype=complex).reshape(points, m, d, d))
        assert np.all(np.diff(rows * n * points + cols) > 0)
        assert np.array_equal(rows // n, cols // n)
        for p in range(points):
            at = rows // n == p
            want = kron_generator(fs[p], [np.asarray(g, dtype=complex) for g in jumps[p]])
            r, c = rows[at] - p * n, cols[at] - p * n
            assert bits(vals[at]) == bits(want[r, c])
            left_out = np.ones(want.shape, dtype=bool)
            left_out[r, c] = False
            assert np.all(want[left_out] == 0)


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


def assert_grid_assembly_is_each_models(models):
    """_assemble_grid against assemble_liouvillian of each model and the
    kron sum of its H_eff and jumps: point p's lists, moved back by the
    indices of the points before it, bit for bit, and its (H_eff, Gamma)
    factors the model's own.  Returns the number of entries of each
    point."""
    (rows, cols, vals), dims, factors = _assemble_grid(models)
    assert dims == [model.dim for model in models]
    points = [point for heffs, gammas in factors for point in zip(heffs, gammas)]
    assert len(points) == len(models)
    for (heff, gammas), model in zip(points, models):
        assert bits(heff) == bits(effective_hamiltonian(model).matrix)
        want = assemble_liouvillian(model).factors
        assert bits(heff) == bits(want[0][0]) and bits(gammas) == bits(want[1][0])
    sizes = np.square(dims)
    starts = np.cumsum(sizes) - sizes
    point = np.searchsorted(starts, rows, side="right") - 1
    assert np.all(np.diff(rows * sizes.sum() + cols) > 0)
    counts = []
    for p, model in enumerate(models):
        at = point == p
        got = (rows[at] - starts[p], cols[at] - starts[p], vals[at])
        for a, b in zip(got, assemble_liouvillian(model).entries):
            assert bits(a) == bits(b)
        heff = effective_hamiltonian(model).matrix
        want = kron_generator(heff, model.folded_jump_matrices())
        assert bits(got[2]) == bits(want[got[0], got[1]])
        left_out = np.ones(want.shape, dtype=bool)
        left_out[got[0], got[1]] = False
        assert np.all(want[left_out] == 0)
        counts.append(int(at.sum()))
    return counts


@pytest.mark.parametrize("name", family_names())
def test_grid_assembly_is_each_models_bitwise(name):
    """Every bundled family on its grid through its EPs: example1 and
    example2 from a zero rate, example3 through g = 0, where its sparsity
    pattern changes."""
    family = get_family(name)
    counts = assert_grid_assembly_is_each_models([family.build(v) for v in GRIDS[name]])
    if name == "example3":
        assert counts[0] < counts[1] == counts[-1]


@pytest.mark.parametrize("name, fixed, param, grid", [
    ("example3", {"levels": 3, "gamma_a": 0.0, "gamma_b": 0.0}, "g", np.linspace(-0.1, 0.2, 4)),
    ("example3", {"levels": 3}, "gamma_b", np.linspace(0.0, 1.0, 3)),
    ("dephasing", {"levels": 5}, "gamma", np.linspace(0.0, 1.0, 3)),
    ("example1", {"gamma_y": 0.0}, "gamma_minus", np.linspace(0.0, 1.0, 3)),
], ids=["example3-closed", "example3-gamma_b", "dephasing", "example1"])
def test_grid_assembly_with_zero_rates(name, fixed, param, grid):
    """Zero rates leave a channel's Gamma at 0, so the point lists fewer
    entries; a closed model has no jump term at all."""
    family = get_family(name, **fixed)
    assert_grid_assembly_is_each_models([family.build(v, param) for v in grid])


def test_grid_assembly_over_a_cutoff():
    """Models of different sizes: one _generator call per run of one
    size, point p still at the indices after the points before it."""
    models = [example3(1.0, 0.1, 1.0, 0.5, levels) for levels in (2, 2, 3, 2)]
    with mock.patch.object(superop, "_generator", wraps=superop._generator) as generator:
        assert_grid_assembly_is_each_models(models)
    assert [call.args[0].shape[0] for call in generator.call_args_list][:3] == [2, 1, 1]


# ---------------------------------------------------------------------------
# sector-native spectra against the dense pipeline
# ---------------------------------------------------------------------------

def assert_matches_the_dense_pipeline(model):
    """liouvillian_eigensystem and support_overlaps against the dense
    pipeline on the kron-sum L: the values, the zero mask and the overlap
    rows bit for bit, and the dense vectors view bit for bit on the stored
    blocks.  Off the blocks the dense vectors are 0, as +0.0 in the view;
    the dense phase rotation leaves -0.0 in some of them.  Where L has a
    sector of at least SCC_MIN_SIZE indices, which _block_eig solves by
    its strongly connected components, the dense pipeline starts from
    _block_eig's eigenpairs, which are first checked against the dense eig
    of each sector (assert_close_to_the_dense_eig); otherwise from the
    dense eig of each sector.  Returns the stored blocks and the sector
    labels of the dense L."""
    liou = assemble_liouvillian(model)
    got = liouvillian_eigensystem(liou)
    heff = effective_hamiltonian(model).matrix
    mat = kron_generator(heff, model.folded_jump_matrices())
    solve = None
    dense_vals, dense_vecs, sectors = reference_block_eig(mat, mirror=True)
    if np.bincount(sectors).max() >= SCC_MIN_SIZE:
        vals, blocks = _block_eig(mat.shape[0], liou.entries, partner=spectral._partner([model.dim]),
                                  factors=[liou.factors])
        solve = (vals, _scatter(blocks))
        assert_close_to_the_dense_eig(mat, *solve, dense_vals, dense_vecs)
    vals, vecs, zero_mask, sectors = reference_eigensystem(mat, solve=solve)
    assert bits(got.eigenvalues) == bits(vals)
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
def test_zero_sector_is_orthonormalized_inside_each_sector(levels):
    """Zero rates close example3: L = -i[H, .] has a zero eigenvalue in
    several sectors, some with two or more zero columns.  Each sector's
    zero columns are orthonormalized on its own rows, the sectors of one
    size and zero count in one stacked QR, so every stored block spans
    one sector and the basis stays in the kernel."""
    model = example3(1.0, 0.1, 0.0, 0.0, levels)
    _, sectors = assert_matches_the_dense_pipeline(model)
    liou = assemble_liouvillian(model)
    got = liouvillian_eigensystem(liou)
    stacked = []
    for rows, cols, v in got.blocks:
        held = got.zero_mask[cols]
        per = held.sum(axis=1)
        stacked += [(int((per == z).sum()), v.shape[1], z) for z in np.unique(per[per > 1])]
        for t in range(len(rows)):
            assert np.unique(sectors[rows[t]]).size == 1
            q = v[t][:, held[t]]
            assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) <= 1e-14
    if levels == 3:
        assert stacked == [(2, 4, 2), (1, 9, 3)]
    q = got.vectors[:, got.zero_mask]
    assert np.linalg.norm(liou.matrix @ q) <= 1e-12


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


def test_spectrum_types_are_eigensystems():
    assert issubclass(Spectrum, Eigensystem) and issubclass(NhhSpectrum, Eigensystem)


def test_nhh_spectrum_overlaps_stay_within_excitation_blocks():
    """analyze_nhh keeps H_eff's excitation blocks: a pair of vectors in
    different blocks has overlap exactly 0, and every other pair equals
    the dense reference."""
    nhh = analyze_nhh(effective_hamiltonian(example3(1.0, 0.1, 1.0, 0.5, levels=3)))
    block, count = np.empty(nhh.size, dtype=np.intp), 0
    for _, cols, _ in nhh.blocks:
        block[cols] = count + np.arange(cols.shape[0])[:, None]
        count += cols.shape[0]
    apart = block[:, None] != block[None, :]
    got = overlap_matrix(nhh)
    assert apart.any() and not got[apart].view(np.uint64).any()
    i, j, ovl = reference_support_overlaps(nhh.vectors)
    want = np.eye(nhh.size)
    want[i, j] = want[j, i] = ovl
    assert bits(got) == bits(want)
    for a, b in zip(support_overlaps(nhh), (i, j, ovl)):
        assert bits(a) == bits(b)


def assert_blocks_match(got, vals, vecs):
    """Values bit for bit; the dense vectors bit for bit on the stored
    blocks and 0 off them (as +0.0 in the view)."""
    assert bits(got.eigenvalues) == bits(vals)
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
    assert bits(got.eigenvalues) == bits(want.eigenvalues)
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


@pytest.mark.parametrize("solve", [
    liouvillian_eigensystems,
    nhh_eigensystems,
    lambda grid: get_family("example3", levels=2).liouvillian_family().eigensystem(grid),
    lambda grid: get_family("example3", levels=2).nhh_family().eigensystem(grid),
], ids=["liouvillian_eigensystems", "nhh_eigensystems", "liouvillian_family", "nhh_family"])
def test_an_empty_grid_gives_no_results(solve):
    """One result per input, so none for an empty list or grid."""
    assert solve([]) == ()
    assert solve(np.array([])) == ()


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
    """Zero rates: several sectors of every point hold two or more zero
    columns, which take stacked QRs across the grid, and g = 0 (a
    diagonal L) has more zero columns than the rest, each alone in its
    1 x 1 sector."""
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
    assert np.abs(liouvillian_eigensystem(small).eigenvalues.imag).max() == 1e-6


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
            (nhh_eigensystems, [np.eye(2), nan, nan], SpectralError, "non-finite entry", 1)]:
        spec = SpectrumFamily("k", lambda values: solve([items[int(v)] for v in values]),
                              lambda value: items[int(value)])
        with pytest.raises(error, match=text + ".*" + re.escape(
                f"(at grid index {bad}, k={grid[bad]!r})")):
            sweep(spec, grid)


def bent_generator(point, bend):
    """superop._generator with bend(rows, cols, vals) applied to the
    lists of one grid point, its indices numbered from 0 as the point's
    own."""
    generator = superop._generator

    def bent(k, jumps):
        rows, cols, vals = generator(k, jumps)
        n = k.shape[1] ** 2
        at = rows // n == point
        vals = vals.copy()
        part = vals[at]
        bend(rows[at] % n, cols[at] % n, part, k.shape[1])
        vals[at] = part
        return rows, cols, vals

    return mock.patch.object(superop, "_generator", bent)


def off_trace_row_entry(rows, cols, d):
    """The first listed entry off the diagonal on a row of an off-diagonal
    vec index, so off every trace row."""
    return np.flatnonzero((rows // d != rows % d) & (rows != cols))[0]


def spoil_trace_row(rows, cols, vals, d):
    vals[np.flatnonzero(rows % (d + 1) == 0)[0]] += 0.5


def spoil_symmetry(rows, cols, vals, d):
    vals[off_trace_row_entry(rows, cols, d)] += 1e-6


def spoil_finiteness(rows, cols, vals, d):
    vals[off_trace_row_entry(rows, cols, d)] = np.inf


@pytest.mark.parametrize("bad", [0, 2, 3])
@pytest.mark.parametrize("spoil, error, text", [
    (spoil_trace_row, SpectralError, "trace row"),
    (spoil_symmetry, SpectralError, "preserve Hermiticity"),
    (spoil_finiteness, SpectralError, "non-finite entry"),
], ids=["trace-row", "symmetry", "non-finite"])
def test_a_failing_point_of_the_stacked_assembly_names_its_grid_index(spoil, error, text, bad):
    """A Liouvillian family assembles its grid as one stack: an entry
    spoiled at one point of it is refused with that point's index, as
    .point and in the sweep's message."""
    family = get_family("example3", levels=2).liouvillian_family()
    grid = np.linspace(0.05, 0.2, 4)
    with bent_generator(bad, spoil):
        with pytest.raises(error, match=text) as err:
            family.eigensystem(grid)
        assert err.value.point == bad
        with pytest.raises(error, match=text + ".*" + re.escape(
                f"(at grid index {bad}, g={grid[bad]!r})")):
            sweep(family, grid)


def test_a_failing_build_of_the_stacked_assembly_names_its_grid_index():
    family = get_family("example3", levels=2).liouvillian_family("gamma_b")
    grid = np.array([0.5, 0.0, -0.5])
    with pytest.raises(ModelBuildError) as err:
        family.eigensystem(grid)
    assert err.value.point == 2
    with pytest.raises(ModelBuildError, match=re.escape(f"(at grid index 2, gamma_b={grid[2]!r})")):
        sweep(family, grid)


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
    dense product in the last bits, and both trackers compare overlaps
    rounded to 12 decimals, so the overlaps that a conjugate pair has with
    a Hermitian eigenmatrix, equal but for rounding, tie: where a pair
    leaves the real axis (example2 at 3.9875 -> 4.1, example1 at 3.0 ->
    3.1, example3 at 0.18125 -> 0.1875)."""
    family = get_family(name, **fixed)
    spec = family.nhh_family() if operator == "nhh" else family.liouvillian_family()
    res = sweep(spec, grid)
    raw = spec.eigensystem(grid)
    want, overlaps = reference_track(raw)
    for k, (system, perm) in enumerate(zip(raw, want)):
        assert bits(res.eigenvalues[k]) == bits(system.eigenvalues[perm])
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
    without the others (3,160 pairs -> 495, 711 cells -> 524)."""
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
    assert (bi.size, si.size, len(everything), len(kept)) == (3160, 495, 711, 524)
    assert kept[0] == everything[0] == (1, 6, 16)


# ---------------------------------------------------------------------------
# trajectories: the jump-cell search and the ensemble statistics
# ---------------------------------------------------------------------------

def reference_jump_cells(psi, u, room, prop):
    """The bisection over the propagator powers that the Gram contraction
    replaces: the norm never increases, so bisect between 1 > u at 0 and
    room, the cell that holds the jump when no earlier one does."""
    lo, hi = np.zeros_like(room), room
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        below = np.linalg.norm(np.einsum("ri,rij->rj", psi, prop.powers[mid]), axis=1) ** 2 <= u
        lo, hi = np.where(below, lo, mid), np.where(below, mid, hi)
    return hi


def reference_normalized(rows):
    """Unit rows and squared norms from np.linalg.norm, the form that the
    column sum of _normalized replaces for rows of fewer than 8 entries."""
    nrm = np.linalg.norm(rows, axis=1)
    return rows / nrm[:, None], nrm ** 2


def reference_collapse(phi, gts, v):
    """The cumulative-weight channel pick for any number of channels, which
    the one-channel collapse skips."""
    cand = np.stack([phi @ gt for gt in gts], axis=1)
    cum = np.cumsum(np.einsum("rcd,rcd->rc", cand.conj(), cand).real, axis=1)
    channel = np.argmax(cum > v[:, None] * cum[:, -1:], axis=1)
    return reference_normalized(cand[np.arange(len(channel)), channel])[0], channel


BISECTION = {"_jump_cells": reference_jump_cells}
STEPPER_KERNELS = {"_normalized": reference_normalized, "_collapse": reference_collapse}


def assert_same_unravelling(model, psi0, reference=BISECTION, **run):
    """trajectories as it is and with the reference kernels patched in (the
    bisection for the Gram search by default): the same jump records and
    the same bits of every state and survival."""
    got = trajectories(model, psi0, **run)
    with mock.patch.multiple(dynamics, **reference):
        want = trajectories(model, psi0, **run)
    assert got.jump_records == want.jump_records
    assert bits(got.trajectory_states) == bits(want.trajectory_states)
    assert bits(got.no_jump_states) == bits(want.no_jump_states)
    assert bits(got.survival) == bits(want.survival)
    assert sum(map(len, got.jump_records)) > 0
    return got


def two_jumps_in_a_block(ens):
    """Whether a trajectory jumped twice inside one block; with n_samples
    = 2 the blocks are the runs of _BLOCK steps from t = 0, and a jump at
    half-step index h lies in block (ceil(h / 2) - 1) // _BLOCK."""
    for record in ens.jump_records:
        halves = np.rint(2 * np.array([t for t, _ in record]) / ens.dt).astype(int)
        blocks = ((halves + 1) // 2 - 1) // dynamics._BLOCK
        if np.any(np.diff(blocks) == 0):
            return True
    return False


def excited(model):
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[-1] = 1.0
    return psi0


@pytest.mark.parametrize("name, params, dt", [
    ("example1", {}, 1e-3),
    ("example2", {}, 1e-3),
    ("example3", {"levels": 3}, 1e-2),
    ("dephasing", {}, 1e-3),
])
def test_jump_search_equals_the_bisection(name, params, dt):
    model = get_family(name, **params).build()
    assert_same_unravelling(model, excited(model), n_traj=200, dt=dt, t_max=400 * dt, seed=3,
                            n_samples=7)


def test_jump_search_equals_the_bisection_with_two_jumps_in_a_block():
    # dephasing at rate 24: each row jumps about 3 times per 128-step block
    h = Operator(HilbertSpace((2,)), 0.5 * np.array([[0, 1], [1, 0]], dtype=complex))
    z = Operator(h.space, np.diag([1.0, -1.0]).astype(complex))
    model = dynamics.LindbladModel(h, ((24.0, z),))
    ens = assert_same_unravelling(model, [0, 1], n_traj=40, dt=1e-3, t_max=0.6, seed=11,
                                  n_samples=2)
    assert two_jumps_in_a_block(ens)


def test_jump_search_equals_the_bisection_where_h_dt_is_not_small():
    # ||H|| dt = 0.75: the norm^2 falls in steps, not smoothly, across cells
    model = get_family("example2", omega_x=300.0, gamma_minus=1.0).build()
    assert_same_unravelling(model, [0, 1], n_traj=200, dt=5e-3, t_max=3.0, seed=5,
                            n_samples=4)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_jump_search_equals_the_bisection_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model = random_lindblad_model(rng, max_dim=4)
    dt = 0.02 / max(np.linalg.norm(g.conj().T @ g, 2) for g in model.folded_jump_matrices())
    psi0 = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    assert_same_unravelling(model, psi0 / np.linalg.norm(psi0), n_traj=60, dt=dt,
                            t_max=300 * dt, seed=seed, n_samples=3)


@pytest.mark.parametrize("d", range(1, 13))
def test_normalized_equals_the_norm_form(d):
    # fewer than 8 columns take the column sum, 8 and more np.linalg.norm;
    # entries run over 1e-150..1e150, so no square overflows
    rng = np.random.default_rng(d)
    for n in (1, 2, 7, 8, 70, 2001):
        wide = rng.standard_normal((n, 2 * d)) + 1j * rng.standard_normal((n, 2 * d))
        wide *= 10.0 ** rng.uniform(-4, 4, wide.shape)
        for scale in (1e-146, 1.0, 1e146):
            for rows in (np.ascontiguousarray(wide[:, :d]), wide[:, ::2],
                         np.asfortranarray(wide[:, d:])):
                rows = rows * scale
                got, want = dynamics._normalized(rows), reference_normalized(rows)
                # the 8 follows the unrolled block of numpy's pairwise sum
                # (shorter rows are summed left to right); a numpy that sums
                # them otherwise fails here though both are right to rounding
                why = f"D = {d}: numpy {np.__version__} no longer sums D < 8 left to right"
                assert bits(got[0]) == bits(want[0]), why
                assert bits(got[1]) == bits(want[1]), why


@pytest.mark.parametrize("name, params, dt, channels", [
    ("example1", {}, 1e-3, 3),
    ("example2", {}, 1e-3, 1),
    ("dephasing", {}, 1e-3, 1),
    ("example3", {"levels": 2}, 1e-2, 2),
    ("example3", {"levels": 3}, 1e-2, 2),  # D = 9: the np.linalg.norm path
])
def test_stepper_kernels_equal_the_reference_kernels(name, params, dt, channels):
    model = get_family(name, **params).build()
    assert len(model.folded_jump_matrices()) == channels
    assert_same_unravelling(model, excited(model), STEPPER_KERNELS, n_traj=200, dt=dt,
                            t_max=400 * dt, seed=3, n_samples=7)


def test_stepper_kernels_equal_the_reference_kernels_with_two_jumps_in_a_block():
    # as in the bisection test: rows that jump again in the same block take
    # the pending-row path of _resolve_jumps
    h = Operator(HilbertSpace((2,)), 0.5 * np.array([[0, 1], [1, 0]], dtype=complex))
    z = Operator(h.space, np.diag([1.0, -1.0]).astype(complex))
    model = dynamics.LindbladModel(h, ((24.0, z),))
    ens = assert_same_unravelling(model, [0, 1], STEPPER_KERNELS, n_traj=40, dt=1e-3,
                                  t_max=0.6, seed=11, n_samples=2)
    assert two_jumps_in_a_block(ens)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stepper_kernels_equal_the_reference_kernels_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model = random_lindblad_model(rng, max_dim=4)
    dt = 0.02 / max(np.linalg.norm(g.conj().T @ g, 2) for g in model.folded_jump_matrices())
    psi0 = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    assert_same_unravelling(model, psi0 / np.linalg.norm(psi0), STEPPER_KERNELS, n_traj=60,
                            dt=dt, t_max=300 * dt, seed=seed, n_samples=3)


def test_a_one_channel_run_reads_one_channel_uniform_per_jump():
    # the stream order is waiting, channel, waiting, ... even where the
    # channel uniform picks nothing
    made = []

    class Recorded(dynamics._Draws):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    model = get_family("example2").build()
    assert len(model.folded_jump_matrices()) == 1
    with mock.patch.object(dynamics, "_Draws", Recorded):
        ens = trajectories(model, excited(model), n_traj=200, dt=1e-3, t_max=0.4, seed=3,
                           n_samples=7)
    jumps = np.array([len(record) for record in ens.jump_records])
    assert jumps.sum() > 0
    np.testing.assert_array_equal(made[0]._count, 1 + 2 * jumps)


def test_jump_records_are_grouped_once_on_first_read():
    model = get_family("example2").build()
    with mock.patch.object(dynamics, "_group_records", wraps=dynamics._group_records) as group:
        ens = trajectories(model, excited(model), n_traj=50, dt=1e-3, t_max=0.4, seed=3)
        assert group.call_count == 0
        records = ens.jump_records
        assert ens.jump_records is records
        assert group.call_count == 1
    assert len(records) == 50 and sum(map(len, records)) > 0
    # an ensemble built without events has no jumps
    assert ensemble_of(ens.trajectory_states[:2]).jump_records == ((), ())


def test_replacing_the_jump_events_regroups_the_records():
    model = get_family("example2").build()
    ens = trajectories(model, excited(model), n_traj=50, dt=1e-3, t_max=0.4, seed=3)
    first = ens.jump_records
    rows, halves, channels = ens.jump_events[0]
    kept = dataclasses.replace(ens, jump_events=((rows[:1], halves[:1], channels[:1]),))
    r = int(rows[0])
    assert sum(map(len, kept.jump_records)) == 1
    assert kept.jump_records[r] == (first[r][0],)
    assert ens.jump_records is first


def reference_ensemble_average(ens):
    states = ens.trajectory_states
    return np.einsum("rki,rkj->kij", states, states.conj()) / ens.n_traj


def reference_observable_stats(ens, op):
    vals = np.real(np.einsum("rki,ij,rkj->rk", ens.trajectory_states.conj(), op.matrix,
                             ens.trajectory_states))
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / np.sqrt(ens.n_traj)


def ensemble_of(states):
    n, t, _ = states.shape
    return dynamics.TrajectoryEnsemble(
        seed=0, n_traj=n, dt=0.1, times=0.1 * np.arange(t), trajectory_states=states,
        no_jump_states=states[0], survival=np.ones(t), jump_events=())


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("slab", [dynamics._SLAB_BYTES, 1000])
def test_statistics_equal_the_einsum_formulas(d, slab):
    rng = np.random.default_rng(d)
    states = rng.standard_normal((301, 5, d)) + 1j * rng.standard_normal((301, 5, d))
    ens = ensemble_of(states / np.linalg.norm(states, axis=2, keepdims=True))
    space = HilbertSpace((d,))
    ops = [Operator(space, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
           for _ in range(3)]
    with mock.patch.object(dynamics, "_SLAB_BYTES", slab):
        pops, means, stderrs = ens.statistics(ops)
        rho = ens.ensemble_average
        for k, op in enumerate(ops):
            mean, stderr = reference_observable_stats(ens, op)
            np.testing.assert_allclose(means[k], mean, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(stderrs[k], stderr, rtol=1e-12, atol=1e-14)
            # one operator's values do not depend on the others asked for
            assert bits(np.array(ens.observable_stats(op))) == bits(np.array([means[k], stderrs[k]]))
    np.testing.assert_allclose(rho, reference_ensemble_average(ens), rtol=1e-12, atol=1e-14)
    assert bits(np.diagonal(rho, axis1=1, axis2=2)) == bits(pops.astype(complex))


def test_statistics_orientation():
    # every trajectory holds psi = (1, 1 + i) / sqrt(3): rho_01 = psi_0 psi_1^*
    # = (1 - i) / 3, and the non-Hermitian O = i |0><1| has <psi|O|psi> =
    # i psi_0^* psi_1 = (i - 1) / 3 (its transpose would give (1 + i) / 3)
    psi = np.array([1, 1 + 1j]) / np.sqrt(3)
    ens = ensemble_of(np.tile(psi, (4, 3, 1)))
    rho = ens.ensemble_average
    np.testing.assert_allclose(rho[:, 0, 1], (1 - 1j) / 3, atol=1e-15)
    np.testing.assert_allclose(rho[:, 1, 0], (1 + 1j) / 3, atol=1e-15)
    op = Operator(HilbertSpace((2,)), np.array([[0, 1j], [0, 0]]))
    mean, stderr = ens.observable_stats(op)
    np.testing.assert_allclose(mean, -1 / 3, atol=1e-15)
    np.testing.assert_allclose(stderr, 0, atol=1e-15)
    pops = ens.statistics()[0]
    np.testing.assert_allclose(pops, np.tile([1 / 3, 2 / 3], (3, 1)), atol=1e-15)


def test_statistics_hold_no_outer_product_stack():
    """2000 trajectories x 51 samples at D = 4: statistics with three
    operators peaks at its (3, n_traj, n_times) values (2.4 MB) and one
    slab, below a fifth of the (n_traj, n_times, D, D) complex stack of
    outer products (26 MB)."""
    rng = np.random.default_rng(0)
    states = rng.standard_normal((2000, 51, 4)) + 1j * rng.standard_normal((2000, 51, 4))
    ens = ensemble_of(states)
    space = HilbertSpace((4,))
    ops = [Operator(space, rng.standard_normal((4, 4)).astype(complex)) for _ in range(3)]
    tracemalloc.start()
    try:
        ens.statistics(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 51 * 16 * 16 // 5
