"""Eigensolves one sector of a sparse matrix at a time.

A matrix given by coordinate lists (rows, cols, values) falls into
sectors, the weakly connected components of the graph with an edge per
nonzero entry: the weak-symmetry blocks of a Liouvillian, the excitation
blocks of H_eff.  _block_eig solves each sector on its own and returns
the eigenvectors as sector blocks (see spectral, "sector blocks").

Orbits under P.  A Liouvillian preserves Hermiticity, P conj(L) P = L
for the swap P of vec(|m><n|) and vec(|n><m|), so its sectors come in
orbits under P: a partner pair (k, -k) is solved once and the partner
written as its exact conjugate, and a self-conjugate sector (k = 0) is
solved as a real matrix in the Hermitian basis.  Its values are then
closed under conjugation bit for bit.  The P-mirror of every edge joins
the graph first, so P maps sectors onto sectors and strongly connected
components onto components.

Strongly connected components.  Inside a sector, a Liouvillian whose
Hamiltonian part keeps the excitation numbers (N_l, N_r) of |m><n| and
whose jumps lower them both is block triangular on the (N_l, N_r)
blocks, the strongly connected components of its graph (Duff and Reid,
ACM TOMS 4, 137 (1978)), and its eigenvalues are those of the diagonal
blocks.  Without left vectors, and given the (H_eff, Gamma) factors the
generator was assembled from, a sector of at least SCC_MIN_SIZE indices
falls into units, its components, labelled with numpy alone
(_strong_components), so the spectral commands load no scipy.  Where
every unit is a product A x B of H_eff's sectors and no jump entry lies
inside one, a unit's block is the no-jump generator on A x B: its values
are the induced -i(h_l - h_m^*) and its vectors V_A kron conj(V_B), the
eigenmatrices |phi_l><phi_m| (Theorem 2's mechanism), read off one eig
per size of H_eff's sectors; the jumps change only the vectors.

_block_eig makes each decision once:
- a sector of one unit, or of units that H_eff does not induce
  (_induced), is solved whole (_dense_eig), the sectors of one size and
  kind as one stack for eig;
- a sector of several induced units is solved by them (_scc_eig), each
  unit's right vectors back-substituted through the units downstream;
- a sector that fails that solve's residual check (SCC_RESIDUAL_TOL),
  which happens near an exceptional point where H_eff's sectors are
  defective, is solved again whole;
- a mirrored sector is written as its partner's exact conjugate.

_sector_svds stacks the sectors of a dense matrix by size in the same
way, for the SVDs of the Jordan analysis at an EP (ep_detect).
"""

from __future__ import annotations

import numpy as np

from .errors import SpectralError
from .superop import _dense_entries

# a sector solved by its induced units (_scc_eig) is accepted when every
# column's residual |M x - lambda x| on the back-substituted rows is at
# most this share of |x| |M|_1, M the sector's block: the dense geev
# reaches a few 1e-15, and the split sectors of example3 away from its
# EP read at most 6.1e-16 (levels=10, g = 0.1); at the EP, up to 0.4
SCC_RESIDUAL_TOL = 1e-14
# sectors of fewer indices are solved whole: below this size splitting
# saves nothing (the 33-point example3 levels=3 grid, sectors of at most
# 19, takes 18.5 ms split against 17.1 ms whole; at levels=4, 67 against
# 108 ms), and the small models keep the bits of the dense solve
SCC_MIN_SIZE = 32
# entries (rows x columns) of one batch of the back-substitution, a run
# of targets of one shape (_batches), so that each of its handful of
# complex arrays holds 1 MB at most; at example3 levels=10 the traced
# peak of _block_eig is 98 MB above its start, the blocks being 75 MB
BACKSUB_BATCH_ENTRIES = 1 << 16


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes 0..n-1 with
    one edge src[k] -- dst[k] per k, by min-label propagation: each node
    is labelled with the smallest node of its component."""
    labels = np.arange(n)
    if not src.size:
        return labels
    src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    while True:
        new = labels.copy()
        np.minimum.at(new, src, labels[dst])
        # pointer jumping: each label is a smaller node of the same component
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _partner(dims) -> np.ndarray:
    """P of the block-diagonal generator of generators on spaces of the
    given dimensions: the index of vec(|n><m|) at the index of
    vec(|m><n|), within each generator's own indices."""
    starts = np.cumsum([d * d for d in dims]) - np.square(dims)
    return np.concatenate([s + np.arange(d * d).reshape(d, d).T.ravel()
                           for d, s in zip(dims, starts)])


def _eig(mats: np.ndarray, left: bool):
    """(vals, right, left or None) of each matrix of a stack, as complex
    arrays.  Right-only stacks go to np.linalg.eig, which solves each
    matrix of a stack as it would solve it alone; scipy.linalg.eig,
    imported here at first use, is called one matrix at a time, only for
    the left vectors, which numpy does not return.  Both run LAPACK geev,
    the real one on a real stack, whose complex eigenpairs come out as
    exact conjugates."""
    if not left:
        vals, vecs = np.linalg.eig(mats)
        return vals.astype(complex, copy=False), vecs.astype(complex, copy=False), None
    import scipy.linalg
    vals = np.empty(mats.shape[:2], dtype=complex)
    vecs, lvecs = np.empty(mats.shape, dtype=complex), np.empty(mats.shape, dtype=complex)
    for t, mat in enumerate(mats):
        vals[t], lvecs[t], vecs[t] = scipy.linalg.eig(mat, left=True)
    return vals, vecs, lvecs


def _to_hermitian_basis(mats: np.ndarray, mate: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The real matrices B = T^-1 M T of self-conjugate blocks M, made
    from mats in place.

    Position j of a block holds index u, and mate[:, j] the position of
    P u; side is +1 where u < P u, -1 where u > P u and 0 where u = P u.
    Column j of T is vec(|m><n| + |n><m|) at side +1 (u = vec |m><n|),
    vec(i|m><n| - i|n><m|) at side -1 (u = vec |n><m|) and vec(|m><m|) at
    0: the Hermitian basis, with its pairs scaled by sqrt(2) so that every
    step below is exact but for one addition in each stage.  B is real
    when P conj(M) P = M; its imaginary rounding is dropped, and signed
    zeros are made +0.0."""
    cols = np.take_along_axis(mats, mate[:, None, :], axis=2)
    up, down = side[:, None, :] > 0, side[:, None, :] < 0
    # M T: column u is M_u + M_w, column w is i (M_u - M_w)
    np.add(mats, cols, out=mats, where=up)
    np.subtract(cols, mats, out=mats, where=down)
    np.multiply(mats, 1j, out=mats, where=down)
    del cols
    # T^-1 (M T): row u is Re(X_u + X_w) / 2, row w is Im(X_u - X_w) / 2
    up, down = side[:, :, None] > 0, side[:, :, None] < 0
    out = mats.real.copy()
    np.add(mats.real, np.take_along_axis(mats.real, mate[:, :, None], axis=1), out=out, where=up)
    np.subtract(np.take_along_axis(mats.imag, mate[:, :, None], axis=1), mats.imag,
                out=out, where=down)
    np.divide(out, 2, out=out, where=up | down)
    out += 0.0
    return out


def _from_hermitian_basis(y: np.ndarray, mate: np.ndarray, side: np.ndarray) -> np.ndarray:
    """x = T y for the T of _to_hermitian_basis, entry by entry and in
    place: for w = P u, x_u = y_u + i y_w and x_w = conj(y_u) - i conj(y_w)
    conjugated, each part of x_w with the operands of the same part of
    x_u, so that x of the eigenvector conj(y) is P conj(x) bit for bit."""
    up, down = side[:, :, None] > 0, side[:, :, None] < 0
    # at u: re = y_u.re - y_w.im, im = y_u.im + y_w.re; at w: re = the
    # latter, im = -(the former)
    diff = y.real - np.take_along_axis(y.imag, mate[:, :, None], axis=1)
    total = y.imag + np.take_along_axis(y.real, mate[:, :, None], axis=1)
    np.copyto(y.real, diff, where=up)
    np.copyto(y.real, total, where=down)
    np.copyto(y.imag, total, where=up)
    np.negative(diff, out=y.imag, where=down)
    return y


def _ranked(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices grouped by label (labels ascending, indices ascending
    within each), and the rank of each index within its group."""
    nodes = np.argsort(labels, kind="stable")
    ordered = labels[nodes]
    rank = np.empty(labels.size, dtype=np.intp)
    # each place in the sorted labels, less the first place of its label
    rank[nodes] = np.arange(labels.size) - np.searchsorted(ordered, ordered)
    return nodes, rank


def _by_size(labels: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """The sectors of labels stacked by size: one (k, m) array per size m
    present, ascending, whose rows are the sectors of that size in label
    order, each with its indices ascending; with the size of each index's
    sector and its rank there (_ranked)."""
    size = np.bincount(labels)[labels]
    nodes, rank = _ranked(labels)
    idx = [nodes[size[nodes] == m].reshape(-1, m) for m in np.flatnonzero(np.bincount(size))]
    return idx, size, rank


def _sector_svds(mat: np.ndarray, shift: complex):
    """A dense square M - shift by sectors (the weakly connected components
    of M's nonzeros): one stack (idx (k, m), the blocks of M - shift on
    those indices, their full SVD u, s, vh) per sector size m, from one
    SVD call per stack; and ||M||_2, the largest singular value of the
    unshifted stacks, from one more.  The Jordan analysis of ep_detect
    reads M - lambda_EP through these."""
    stacks, norm = [], 0.0
    for idx in _by_size(_components(mat.shape[0], *np.nonzero(mat)))[0]:
        block = mat[idx[:, :, None], idx[:, None, :]]
        norm = max(norm, np.linalg.svd(block, compute_uv=False)[:, 0].max())
        shifted = block - shift * np.eye(idx.shape[1])
        stacks.append((idx, shifted, *np.linalg.svd(shifted)))
    return stacks, float(norm)


def _listed(n: int, src: np.ndarray, dst: np.ndarray, qsrc: np.ndarray,
            qdst: np.ndarray) -> np.ndarray:
    """The position k of each edge qsrc -> qdst among the edges src[k] ->
    dst[k] (at least one) of a graph on nodes 0..n-1, the first where it
    is listed twice, and -1 where it is not listed."""
    # the edge keys, sorted already for lists in row-major order (src the column)
    key, want = dst * n + src, qdst * n + qsrc
    order = None if np.all(key[1:] > key[:-1]) else np.argsort(key, kind="stable")
    at = np.minimum(np.searchsorted(key, want, sorter=order), key.size - 1)
    at = at if order is None else order[at]
    return np.where(key[at] == want, at, -1)


def _strong_components(n: int, src: np.ndarray, dst: np.ndarray):
    """Strongly connected components of the directed graph on nodes
    0..n-1 with an edge src[k] -> dst[k] per k, where its weakly
    connected pieces are acyclic once contracted: each node is labelled
    with the smallest node of its component.  Returns the labels and each
    node's level, the longest path of components that leads to its own.

    Two nodes joined both ways lie in one component, so those edges are
    contracted (_components); in a piece whose contracted graph has no
    cycle, which a longest-path relaxation settles in fewer steps than
    the piece has nodes, the contracted nodes are the components.  A
    piece with a cycle through one-way edges is labelled whole, as one
    component of level 0: a matrix is block triangular on that coarser
    partition too, and its sector is then solved whole.
    """
    both = _listed(n, src, dst, dst, src) >= 0
    labels = _components(n, src[both], dst[both])
    s, d = labels[src], labels[dst]
    s, d = s[s != d], d[s != d]
    if not s.size:
        return labels, np.zeros(n, dtype=np.intp)
    # the contracted nodes numbered 0..q-1, in ascending order
    reps = np.flatnonzero(labels == np.arange(n))
    num = np.empty(n, dtype=np.intp)
    num[reps] = np.arange(reps.size)
    s, d = num[s], num[d]
    piece = _components(reps.size, s, d)
    level = np.zeros(reps.size, dtype=np.intp)
    for _ in range(np.bincount(piece).max()):
        new = level.copy()
        np.maximum.at(new, d, level[s] + 1)
        grew = new != level
        if not grew.any():
            return labels, level[num[labels]]
        level = new
    # only a cycle still lengthens the paths into its nodes
    whole = np.isin(piece, piece[grew])
    node = num[labels]
    return (reps[np.where(whole, piece, np.arange(reps.size))[node]],
            np.where(whole, 0, level)[node])


def _blocks(entries, unit: np.ndarray, urank: np.ndarray, heads: np.ndarray) -> tuple:
    """The diagonal blocks of the units labelled heads, in that order, in
    one flat array, and where each begins (at its label): the block of a
    unit of b indices is b x b, entry (urank[r], urank[c]) the listed entry
    (r, c) of the unit, every other entry 0."""
    rows, cols, values = entries
    usize = np.bincount(unit, minlength=unit.size)
    area = np.square(usize[heads])
    start = np.full(unit.size, -1, dtype=np.intp)
    start[heads] = np.cumsum(area) - area
    flat = np.zeros(area.sum(), dtype=values.dtype)
    u = unit[rows]
    e = np.flatnonzero((u == unit[cols]) & (start[u] >= 0))
    r, u = rows[e], u[e]
    flat[start[u] + urank[r] * usize[u] + urank[cols[e]]] = values[e]
    return flat, start


def _solve(mats: np.ndarray, idx: np.ndarray, rank: np.ndarray, real: np.ndarray,
           partner: np.ndarray | None, left: bool):
    """_eig of the blocks mats on the index sets idx, as _blocks makes
    them; blocks of self-conjugate sectors (real, on the indices), each
    mapped onto itself by partner, in the Hermitian basis
    (_to_hermitian_basis), their vectors mapped back.  A 1x1 block is its
    entry, real where self-conjugate, with a unit vector on both sides;
    larger blocks are of one kind.  mats may be overwritten."""
    if mats.shape[-1] == 1:
        # eig checks its own blocks; the 1x1 blocks bypass it
        if not np.isfinite(mats).all():
            raise ValueError("array must not contain infs or NaNs")
        v = np.ones(mats.shape, dtype=complex)
        return np.where(real[idx], mats[:, 0].real, mats[:, 0]).astype(complex, copy=False), v, v
    if not real[idx[0, 0]]:
        return _eig(mats, left)
    mate_pos, side = rank[partner[idx]], np.sign(partner[idx] - idx)
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _to_hermitian_basis(mats.astype(complex, copy=False), mate_pos, side)
    bad = np.flatnonzero(~np.isfinite(mats).all(axis=(1, 2)))
    if bad.size:
        exc = SpectralError(f"the sector of index {idx[bad[0], 0]} overflows in the Hermitian "
                            "basis: its entries are too close to the largest double")
        # a caller that stacks several matrices maps the index to its matrix
        exc.index = int(idx[bad[0], 0])
        raise exc
    w, v, lv = _eig(mats, left)
    del mats
    _from_hermitian_basis(v, mate_pos, side)
    if left:
        # left vectors map by T^-dag = T diag(1/2 on the pairs, 1)
        lv *= np.where(side != 0, 0.5, 1.0)[:, :, None]
        _from_hermitian_basis(lv, mate_pos, side)
    return w, v, lv


def _dense_eig(entries, labels, rank, idx, real, skip, partner, vals, vecs, lvecs) -> None:
    """The dense solve of every sector that skip leaves out: its values
    into vals, and its right vectors (and left ones, unless lvecs is None)
    into the block stacks vecs (lvecs), one per sector size (idx).  The
    sectors of one size and kind (the 1x1 ones of both kinds) are solved
    as one stack (_solve), the self-conjugate ones first, their blocks
    made in one pass (_blocks)."""
    todo = ~skip
    kinds = real & todo, ~real & todo
    runs = [(k, at) for k, sec in enumerate(idx) for kind in (kinds if sec.shape[1] > 1 else [todo])
            if (at := np.flatnonzero(kind[sec[:, 0]])).size]
    if not runs:
        return
    flat, start = _blocks(entries, labels, rank, np.concatenate([idx[k][at, 0] for k, at in runs]))
    for k, at in runs:
        sec = idx[k][at]
        b = sec.shape[1]
        mats = flat[start[sec[0, 0]]:start[sec[-1, 0]] + b * b].reshape(-1, b, b)
        vals[sec], vecs[k][at], lv = _solve(mats, sec, rank, real, partner, lvecs is not None)
        if lvecs is not None:
            lvecs[k][at] = lv


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real ** 2 + x.imag ** 2


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[k] + 0, ..., starts[k] + lengths[k] - 1 for each k, in order."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _batches(shape: np.ndarray, size: np.ndarray) -> list:
    """Slices (lo, hi) of back-substitution targets sorted by shape
    (level, b, f, u; one row each): runs of one shape of at most
    BACKSUB_BATCH_ENTRIES entries of size b x u each (a larger target is
    a batch alone)."""
    cuts, lo = [], 0
    for end in np.flatnonzero(np.r_[(np.diff(shape, axis=0) != 0).any(axis=1), True]) + 1:
        step = max(BACKSUB_BATCH_ENTRIES // int(size[lo]), 1)
        cuts += [(k, min(k + step, end)) for k in range(lo, end, step)]
        lo = end
    return cuts


def _stacks(idx: list) -> tuple:
    """One zeroed flat store of sector blocks, and its views: one (k, b, b)
    stack per sector size (idx)."""
    ends = np.cumsum([sec.size * sec.shape[1] for sec in idx])
    buf = np.zeros(ends[-1], dtype=complex)
    return buf, [buf[e - sec.size * sec.shape[1]:e].reshape(sec.shape + sec.shape[1:])
                 for e, sec in zip(ends, idx)]


def _induced(factors, labels: np.ndarray, unit: np.ndarray, multi: np.ndarray):
    """Where a sector of several units (multi) is induced by H_eff, and
    what _scc_eig reads of H_eff to solve it.

    factors are superop._stacked's (H_eff, Gamma) stacks, (P, D, D) and
    (P, m, D, D), one per run of points in index order, |a><b| of point p
    at p D^2 + a D + b.  H_eff is read as one block-diagonal K, solved by
    _block_eig.  A sector is induced when each unit is a product A x B of
    K's sectors and no Gamma has an entry inside A or B.  Returns the mask
    and, if any is set, for each index |a><b| the labels of A and B and
    the values h_a, h_b; the size of each sector of K and its row in the
    stack of its size, at its label; and K's right vectors and their
    inverses, one pair of stacks per sector size."""
    # per run, as indices of K (a of point t at k0 + t D + a): a and b of
    # each index |a><b|, K's lists, and the rows and columns of the Gamma
    # entries
    parts, k0 = [], 0
    for heff, gammas in factors:
        p, d = heff.shape[:2]
        i, (kr, kc, kx), jt = np.arange(p * d * d), _dense_entries(heff), np.nonzero(gammas)
        jk = k0 + jt[0] * d
        parts.append((k0 + i // d, k0 + i // (d * d) * d + i % d, k0 + kr, k0 + kc, kx,
                      jk + jt[2], jk + jt[3]))
        k0 += p * d
    ka, kb, kr, kc, kx, jr, jc = (np.concatenate(x) for x in zip(*parts))
    kvals, blocks = _block_eig(k0, (kr, kc, kx))
    klab, kpos = np.empty(k0, dtype=np.intp), np.empty(k0, dtype=np.intp)
    for sec, _, _ in blocks:
        klab[sec], kpos[sec[:, 0]] = sec[:, :1], np.arange(len(sec))
    ksize, inside = np.bincount(klab, minlength=k0), klab[jr][klab[jr] == klab[jc]]
    fa, fb, n = klab[ka], klab[kb], labels.size
    fits = ((fa == fa[unit]) & (fb == fb[unit]) & ~np.isin(fa, inside) & ~np.isin(fb, inside)
            & (np.bincount(unit, minlength=n)[unit] == ksize[fa] * ksize[fb]))
    induced = multi & (np.bincount(labels, ~fits, n) == 0)[labels]
    if not induced.any():
        return induced, None
    # a singular V's pseudo-inverse fails the residual check downstream
    kvecs = {sec.shape[1]: (v, np.linalg.pinv(v)) for sec, _, v in blocks}
    return induced, (fa, fb, kvals[ka], kvals[kb], ksize, kpos, kvecs)


def _scc_eig(entries, labels, rank, idx, unit, level, real, solved, partner, heff, vals, buf,
             stacks) -> np.ndarray:
    """The solve of the sectors where solved holds, each of several units
    induced by H_eff (heff, as _induced returns it), by their units: their
    values into vals, their right vectors into the block stacks (views of
    the flat store buf, as _stacks makes them).  Returns where a sector
    fails the residual check, for _block_eig to solve whole.

    Inside a sector, M is block triangular on its units (unit, each
    labelled by its smallest index), and its eigenvalues are those of the
    diagonal blocks.  The block of unit A x B has the values
    -i(h_a - h_b^*) at its indices |a><b|, and the vectors
    V = V_A kron conj(V_B) (the eigenmatrices |phi_l><phi_m|), with
    V^-1 = V_A^-1 kron conj(V_B^-1), made in stacks of one shape.

    The vector of eigenvalue lam of unit I is V_I's column on I, 0 on the
    units I does not reach, and on each unit J downstream, taken in order
    of its level (the longest path of components that leads to it: P,
    which maps the graph onto itself, keeps it, and it rises along every
    edge between units),
        x_J = V_J (V_J^-1 b_J / (Lambda_J - lam)),  b_J = -sum_K M_JK x_K,
    the eigenbasis solve of (M_JJ - lam) x_J = b_J.  The units of one
    level and shape are stacked, in batches (_batches), and each solve
    takes one step of refinement on its block row's residual.  Each
    column's residual |M x - lam x| is summed over the back-substituted
    blocks as they are made; a sector fails when its worst exceeds
    SCC_RESIDUAL_TOL |x| |M|_1 (M its block).  Near an exceptional point
    V_J is ill-conditioned, which is where that happens.  Last, in an
    accepted self-conjugate sector, where P maps the column of |a><b| to
    that of |b><a|, of the conjugate value, the vector of |a><a| is
    averaged with its P-conjugate and that of |a><b|, a > b, made the
    P-conjugate of the vector of |b><a|; where that value is real
    (Re h_a = Re h_b bit for bit, as for some states of one N of example3
    below its EP) the two vectors are replaced by their Hermitian
    combinations.  As in the dense solve, every real value then has a
    Hermitian eigenmatrix and every complex pair exact P-conjugate ones.
    """
    rows, cols, values = entries
    n = labels.size
    width = np.bincount(labels, minlength=n)
    units, urank = _ranked(unit)
    ustart = np.searchsorted(unit[units], np.arange(n))
    usize = np.bincount(unit, minlength=n)
    # each sector's block sits at base[its label] of buf
    ends = np.cumsum([sec.size * sec.shape[1] for sec in idx])
    base = np.empty(n, dtype=np.intp)
    for e, sec in zip(ends, idx):
        base[sec[:, 0]] = e - sec.size * sec.shape[1] + np.arange(sec.shape[0]) * sec.shape[1] ** 2
    fa, fb, ha, hb, ksize, kpos, kvecs = heff
    q = np.flatnonzero(solved)
    # -i(h_a - h_b^*), whose imaginary part is +0.0 where a = b
    vals.real[q], vals.imag[q] = ha[q].imag + hb[q].imag, hb[q].real - ha[q].real

    # the units' M, V and V^-1, each unit's block at uo[its label], in
    # stacks of one shape
    heads = np.flatnonzero((unit == np.arange(n)) & solved)
    sa, sb = ksize[fa[heads]], ksize[fb[heads]]
    by = np.lexsort((heads, sb, sa))
    heads, sa, sb = heads[by], sa[by], sb[by]
    mflat, uo = _blocks(entries, unit, urank, heads)
    vflat, viflat = np.empty(mflat.size, dtype=complex), np.empty(mflat.size, dtype=complex)
    res2 = np.zeros(n)
    cuts = np.flatnonzero(np.r_[True, (np.diff(sa) != 0) | (np.diff(sb) != 0), True])
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        hd, a, b = heads[lo:hi], int(sa[lo]), int(sb[lo])
        bb = a * b
        at = slice(uo[hd[0]], uo[hd[-1]] + bb * bb)
        for out, va, vb in zip((vflat, viflat), kvecs[a], kvecs[b]):
            x = va[kpos[fa[hd]]].reshape(-1, a, 1, a, 1)
            y = vb[kpos[fb[hd]]].reshape(-1, 1, b, 1, b)
            out[at] = (x * y.conj()).ravel()
        # V_I on its own rows and columns of its sector's block
        uidx = units[ustart[hd][:, None] + np.arange(bb)]
        r, sec = rank[uidx], labels[hd]
        buf[(base[sec][:, None] + r * width[sec][:, None])[:, :, None] + r[:, None, :]] = \
            vflat[at].reshape(-1, bb, bb)

    # back-substitution, one level at a time: each unit's rows, the indices
    # that feed it (fnode[fstart:fstart + f]) and the columns of the units
    # of lower levels of its sector (order[ostart:ostart + u]); the units
    # of one level and shape are stacked (_batches)
    targets = heads[level[heads] > 0]
    ex = np.flatnonzero((values != 0) & (unit[rows] != unit[cols]) & solved[rows])
    into = unit[rows[ex]]
    fkey, fpos = np.unique(into * n + cols[ex], return_inverse=True)
    ftgt, fnode = np.divmod(fkey, n)
    fpos -= np.searchsorted(ftgt, into)
    fstart = np.searchsorted(ftgt, targets)
    f = np.searchsorted(ftgt, targets, side="right") - fstart
    order = np.lexsort((level, labels))
    top = int(level.max()) + 1
    key = labels[order] * top + level[order]
    ostart = np.searchsorted(key, labels[targets] * top)
    u = np.searchsorted(key, labels[targets] * top + level[targets]) - ostart
    bt = usize[targets]
    by = np.lexsort((u, f, bt, level[targets]))
    targets, f, u, bt, ostart, fstart = (x[by] for x in (targets, f, u, bt, ostart, fstart))
    cuts = _batches(np.c_[level[targets], bt, f, u], bt * u)
    # all targets' rows, columns and feeding indices, concatenated in
    # target order, with their ranks and values
    jrow = units[_ragged(ustart[targets], bt)]
    ucol = order[_ragged(ostart, u)]
    jr, ur, fr = rank[jrow], rank[ucol], rank[fnode[_ragged(fstart, f)]]
    lam_j, lam_u = vals[jrow], vals[ucol]
    jo, co, fo = (np.cumsum(x) - x for x in (bt, u, f))
    sec = labels[targets]
    sbase, swidth = base[sec], width[sec]
    # the coupling entries, by batch: target's place in it, row, feeder
    first = np.empty(n, dtype=np.intp)
    for k, (lo, hi) in enumerate(cuts):
        first[targets[lo:hi]] = np.arange(hi - lo) + (k << 32)
    by = np.argsort(first[into], kind="stable")
    ecut = np.searchsorted(first[into][by] >> 32, np.arange(len(cuts) + 1))
    eplace, erow = first[into][by] & 0xFFFFFFFF, urank[rows[ex[by]]]
    efeed, evalue = fpos[by], values[ex[by]]
    for k, (lo, hi) in enumerate(cuts):
        g, bb, ff, uu = hi - lo, int(bt[lo]), int(f[lo]), int(u[lo])
        js, us, fs = (slice(o[lo], o[lo] + g * w) for o, w in ((jo, bb), (co, uu), (fo, ff)))
        es = slice(ecut[k], ecut[k + 1])
        b0, w0 = sbase[lo:hi, None], swidth[lo:hi, None]
        cols_u = ur[us].reshape(g, 1, uu)
        coupling = np.zeros((g, bb, ff), dtype=complex)
        coupling[eplace[es], erow[es], efeed[es]] = evalue[es]
        rhs = coupling @ buf[(b0 + fr[fs].reshape(g, ff) * w0)[:, :, None] + cols_u]
        np.negative(rhs, out=rhs)
        ij = (uo[targets[lo:hi], None] + np.arange(bb * bb)).reshape(g, bb, bb)
        m_, v_, vi = mflat[ij], vflat[ij], viflat[ij]
        lam = lam_u[us].reshape(g, 1, uu)
        gap = lam_j[js].reshape(g, bb, 1) - lam
        # a zero gap meets a zero right side (a column whose unit does not
        # reach J) unless lam repeats downstream, which the check refuses
        gap[gap == 0] = 1
        x = v_ @ ((vi @ rhs) / gap)
        # one step of refinement, on the residual of the block row
        x -= v_ @ ((vi @ (m_ @ x - x * lam - rhs)) / gap)
        np.add.at(res2, ucol[us], _abs2(m_ @ x - x * lam - rhs).sum(axis=1).ravel())
        buf[(b0 + jr[js].reshape(g, bb) * w0)[:, :, None] + cols_u] = x

    # the residual check
    nrm2 = np.ones(n)
    for stack, sec in zip(stacks, idx):
        for t in np.flatnonzero(solved[sec[:, 0]]):
            nrm2[sec[t]] = _abs2(stack[t]).sum(axis=0)
    q = np.flatnonzero(solved)
    norm = np.zeros(n)
    np.maximum.at(norm, labels, np.bincount(cols, np.abs(values), n))
    ok = np.sqrt(res2[q] / nrm2[q]) <= SCC_RESIDUAL_TOL * norm[labels[q]]
    bad = np.zeros(n, dtype=bool)
    bad[labels[q[~ok]]] = True
    bad = bad[labels]
    # an accepted self-conjugate sector closed under P-conjugation, one
    # column set at a time: the vectors of |a><a| averaged with their
    # P-conjugates, then those of |a><b|, a > b, made the P-conjugates of
    # the vectors of |b><a|, and those of a real value Hermitian
    for stack, sec in zip(stacks, idx):
        for t in np.flatnonzero((solved & real & ~bad)[sec[:, 0]]):
            x, c, flip = stack[t], sec[t], rank[partner[sec[t]]]
            # column j of y is P conj of the column of the conjugate value
            y, own, low = np.conjugate(x[flip[:, None], flip]), partner[c] == c, partner[c] < c
            x[:, own] = (x[:, own] + y[:, own]) * 0.5
            x[:, low] = y[:, low]
            up = np.flatnonzero((partner[c] > c) & (vals[c].imag == 0))
            s, y = x[:, up], x[:, flip[up]]
            x[:, up], x[:, flip[up]] = s + y, 1j * (s - y)
    return bad


def _block_eig(n: int, entries, left: bool = False, partner: np.ndarray | None = None,
               factors=None):
    """eig of the n x n matrix with coordinate lists entries = (rows, cols,
    values), every other entry 0, one weakly connected sector at a time.

    Returns (vals, blocks), or (vals, blocks, left_blocks) with left,
    where vals[i] belongs to column i and each sector is a block with
    rows = cols = its indices.  The blocks of one size form one stack; a
    1x1 block is its diagonal entry with a unit vector.

    partner, an involution P of the indices with P conj(M) P = M (the
    swap vec(|m><n|) <-> vec(|n><m|) of a Hermiticity-preserving
    generator), solves each orbit of sectors under P once.  Of a partner
    pair (S, P S), the sector with the smaller first index is solved, and
    the other is its exact conjugate: conjugated values, and vectors (left
    ones too) conjugated with their rows moved by P.  A self-conjugate
    sector (S = P S) goes to the real geev in the Hermitian basis
    (_to_hermitian_basis), its vectors mapped back entry by entry, so its
    real eigenvalues have Im exactly 0 and its complex pairs stay exact
    P-conjugate pairs.

    factors, the (H_eff, Gamma) stacks M was assembled from (_induced),
    let the right-only solve take a large sector by its units.  How each
    sector is solved is decided here, once (see the module docstring).
    """
    rows, cols, values = entries
    # an edge per nonzero entry off the diagonal: a loop joins nothing
    edge = (values != 0) & (rows != cols)
    src, dst = cols[edge], rows[edge]
    if partner is not None and src.size:
        ps, pd = partner[src], partner[dst]
        # the P-mirrors of the edges that are not edges already: none where
        # the mirrored keys, sorted, are the keys (sorted for row-major lists)
        if not np.array_equal(np.sort(pd * n + ps), dst * n + src):
            missing = _listed(n, src, dst, ps, pd) < 0
            src, dst = np.concatenate((src, ps[missing])), np.concatenate((dst, pd[missing]))
    labels = _components(n, src, dst)
    idx, size, rank = _by_size(labels)
    # each sector's first index is its label; mate is its partner's
    mate = labels if partner is None else labels[partner[labels]]
    real, mirror = (mate == labels) & (partner is not None), mate < labels
    # the units of the sectors that split, and the sectors of several
    # units that H_eff induces
    split = (size >= SCC_MIN_SIZE) & (not left) & (factors is not None)
    induced = np.zeros(n, dtype=bool)
    if split.any():
        unit, level = _strong_components(n, src[split[src]], dst[split[src]])
        unit = np.where(split, unit, labels)
        multi = (np.bincount(labels[unit == np.arange(n)], minlength=n) > 1)[labels]
        induced, heff = _induced(factors, labels, unit, multi)
    vals = np.empty(n, dtype=complex)
    buf, vecs = _stacks(idx)
    lvecs = _stacks(idx)[1] if left else None
    # every 1x1 sector is solved, the mirrored ones too: a unit vector
    # conjugated would read 1 - 0j
    _dense_eig(entries, labels, rank, idx, real, induced | (mirror & (size > 1)), partner, vals,
               vecs, lvecs)
    if induced.any():
        bad = _scc_eig(entries, labels, rank, idx, unit, level, real, induced & ~mirror, partner,
                       heff, vals, buf, vecs)
        if bad.any():
            _dense_eig(entries, labels, rank, idx, real, ~bad, partner, vals, vecs, None)
    for sec, v, lv in zip(idx, vecs, lvecs or vecs):
        mir = mirror[sec[:, 0]]
        if not mir.any():
            continue
        # the solved partner of each mirrored sector, and the row of its
        # block that each row of the mirrored block reads
        at = np.searchsorted(sec[:, 0], mate[sec[mir, 0]])
        vals[sec[mir]] = vals[sec[at]].conj()
        if sec.shape[1] == 1:
            continue
        read = rank[partner[sec[mir]]]
        for stack in (v, lv) if left else (v,):
            part = stack[at[:, None], read]
            stack[mir] = np.conjugate(part, out=part)
            del part
    blocks = [(sec, sec, v) for sec, v in zip(idx, vecs)]
    if left:
        return vals, blocks, [(sec, sec, lv) for sec, lv in zip(idx, lvecs)]
    return vals, blocks
