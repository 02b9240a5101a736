"""Spectral analysis of superoperators and effective Hamiltonians.

liouvillian_eigensystem is what spectra, sweeps and the EP search read:
one right-only eig of a trace-preserving generator.  Every eig is taken
one weakly connected sector of the matrix at a time (_block_eig), read
from the coordinate lists of the matrix: the weak-symmetry blocks of a
Liouvillian, the excitation blocks of H_eff.  The vectors stay in those
sector blocks through every stage below (see "sector blocks"), and an
Eigensystem scatters them into a dense array only when asked to.
Eigenvalues closer than a cluster tolerance are grouped in the complex
plane and replaced by their cluster mean before the sort, and the
zero-eigenvalue sector is orthonormalized.  The grouping rule is
sequential; it runs member by member only inside neighbour groups of
three or more, found on a square grid of cells, and settles the groups
of one and two in whole-array steps.  analyze_liouvillian runs the same
stages on one eig that also returns the left eigenvectors, already
paired: the clusters decide which eigenmatrices get a Hermitian
representative and are the blocks in which left and right eigenmatrices
are scaled so that Tr(sigma_i rho_j) = delta_ij, on the dense vector
arrays, and the steady state comes from the zero-eigenvalue sector.
Near-defective clusters are flagged instead of force-normalized: the
spectral expansion of the dynamics is invalid exactly at an exceptional
point, and silently rescaled left eigenmatrices there would poison every
downstream coefficient.

Sorting convention: |Re(lambda)| ascending, ties broken by Im(lambda)
ascending; only exact ties of both fall through to a deterministic
tiebreak on the eigenvector entries (lexicographic).  For effective
Hamiltonians the analogous order is |Im(h)| ascending then Re(h): the
no-jump generator maps h onto -i(h_l - h_m^*), so Im(h) plays the role
of Re(lambda).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HermiticityError, SpectralError
from .ops_core import (
    HilbertSpace,
    Operator,
    hermitian_spectral_decomposition,
)
from .superop import (
    LindbladModel,
    SuperOp,
    _dense_entries,
    assemble_liouvillian,
    devectorize,
    effective_hamiltonian,
    is_trace_preserving,
    trace_row,
    vectorize,
)

DEFAULT_ZERO_TOL = 1e-10
# At an exact EP the eigensolver splits the defective pair by O(sqrt(eps)),
# and |Tr(sigma rho)| of the returned unit vectors lands at the same scale
# (~1e-8): a much smaller threshold would never fire in double precision,
# while healthy pairs sit at O(0.1).
DEFAULT_DEFECT_TOL = 1e-6
# eigenvector-matrix condition number that flags H_eff near-defective
NHH_DEFECT_COND = 1e8


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _sort_indices(primary: np.ndarray, secondary: np.ndarray, blocks,
                  point: np.ndarray | None = None) -> np.ndarray:
    """Total deterministic order: grid point (when given), primary key,
    secondary key, then the eigenvector entries (re, im of each,
    lexicographic), which only ever break exact ties of the keys.  Entries
    outside the union of a tie's supports are 0 in each of its vectors, so
    only that union is compared, and all ties are broken in one lexsort
    led by the tie."""
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


def _canonical_phase(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate a vector, or each column of a matrix or of a stack of
    matrices, so that its largest-magnitude entry is real and positive;
    zero columns stay zero.  With out=v the rotation is done in place."""
    # read as k matrices of b columns
    stack = v.reshape((-1,) + v.shape[-2:] if v.ndim > 1 else (1, -1, 1))
    k, _, b = stack.shape
    piv = stack[np.arange(k)[:, None], np.argmax(np.abs(stack), axis=1), np.arange(b)]
    # one scalar division per pivot: numpy's array complex division can
    # round differently from its scalar division
    scale = [abs(p) / p if p != 0 else 1.0 for p in piv.ravel()]
    shape = v.shape[:-2] + (1, b) if v.ndim > 1 else (1,)
    return np.multiply(v, np.reshape(scale, shape), out=out)


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes 0..n-1 with
    one edge src[k] -- dst[k] per k, by min-label propagation: each node
    is labelled with the smallest node of its component."""
    src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, src, labels[dst])
        # pointer jumping: each label is a smaller node of the same component
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


# ---------------------------------------------------------------------------
# sector blocks
# ---------------------------------------------------------------------------
#
# Eigenvectors are stored one sector at a time, as a list of stacks
# (rows, cols, vecs) of same-shaped blocks: rows (k, m) ascending, cols
# (k, b) and vecs (k, m, b), so that vecs[t][:, u] is column cols[t, u]
# on the rows rows[t] and 0 on every other row.  The blocks partition the
# rows and the columns of the dense (m, n) array they stand for.  Every
# stage below acts on whole stacks, and a stack computes each column as
# the dense array's column would be computed.

def _as_blocks(vecs: np.ndarray) -> list:
    """A dense (m, n) array as one stack of one block."""
    m, n = vecs.shape
    return [(np.arange(m)[None], np.arange(n)[None], vecs[None])]


def _scatter(blocks) -> np.ndarray:
    """The dense array of the blocks."""
    out = np.zeros((sum(r.size for r, _, _ in blocks), sum(c.size for _, c, _ in blocks)),
                   dtype=complex)
    for r, c, v in blocks:
        out[r[:, :, None], c[:, None, :]] = v
    return out


def _find(blocks, cols: np.ndarray) -> list:
    """Where columns cols are stored: (s, t, u, j) for each stack s that
    holds some, with column cols[j[i]] at blocks[s][2][t[i], :, u[i]]."""
    place = np.full(sum(c.size for _, c, _ in blocks), -1)
    place[cols] = np.arange(cols.size)
    return [(s, t, u, place[c[t, u]]) for s, (_, c, _) in enumerate(blocks)
            for t, u in [np.nonzero(place[c] >= 0)] if t.size]


def _columns(blocks, cols: np.ndarray):
    """(j, rows, vals) over the stored entries of columns cols: column
    cols[j[e]] holds vals[e] on row rows[e]."""
    parts = [(np.repeat(j, blocks[s][0].shape[1]), blocks[s][0][t].ravel(),
              blocks[s][2][t, :, u].ravel()) for s, t, u, j in _find(blocks, cols)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def _support_rows(blocks, cols: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Columns cols as the rows of a float array: re and im of each entry
    on the union of the supports of the columns with the same tie number,
    rows ascending, padded with zeros."""
    j, rows, vals = _columns(blocks, cols)
    nz = vals != 0
    j, rows, vals = j[nz], rows[nz], vals[nz]
    m = sum(r.size for r, _, _ in blocks)
    union, at = np.unique(tie[j] * m + rows, return_inverse=True)
    # place of each union row among those of its tie
    place = np.arange(union.size) - np.searchsorted(union, union - union % m)
    out = np.zeros((cols.size, place.max(initial=-1) + 1), dtype=complex)
    out[j, place[at]] = vals
    return out.view(float)


def _unit_columns(blocks) -> None:
    for _, _, v in blocks:
        v /= np.linalg.norm(v, axis=1, keepdims=True)


def _permute(blocks, order: np.ndarray) -> list:
    """The blocks with column order[i] renumbered i; the vectors stay where
    they are."""
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return [(r, place[c], v) for r, c, v in blocks]


def _merge(blocks, rows: np.ndarray, cols: np.ndarray) -> list:
    """The blocks with the block of column cols[e] and the block of row
    rows[e] merged into one, with all their rows and columns, for each e."""
    first = np.cumsum([0] + [r.shape[0] for r, _, _ in blocks])
    row_block = np.empty(sum(r.size for r, _, _ in blocks), dtype=np.intp)
    col_block = np.empty(sum(c.size for _, c, _ in blocks), dtype=np.intp)
    for s, (r, c, _) in enumerate(blocks):
        row_block[r] = col_block[c] = first[s] + np.arange(r.shape[0])[:, None]
    group = _components(first[-1], row_block[rows], col_block[cols])
    merged = np.bincount(group)[group] > 1
    kept = [(r[keep], c[keep], v[keep]) for s, (r, c, v) in enumerate(blocks)
            if (keep := ~merged[first[s]:first[s + 1]]).any()]
    for g in np.unique(group[merged]):
        r = np.flatnonzero(group[row_block] == g)
        c = np.flatnonzero(group[col_block] == g)
        j, rows, vals = _columns(blocks, c)
        v = np.zeros((1, r.size, c.size), dtype=complex)
        v[0, np.searchsorted(r, rows), j] = vals
        kept.append((r[None], c[None], v))
    return kept


def _block_eig(n: int, entries, left: bool = False):
    """eig of the n x n matrix with coordinate lists entries = (rows, cols,
    values), every other entry 0, one weakly connected sector at a time.

    The sectors are the connected components of the graph with an edge
    per nonzero entry, and each sector's block is made dense on its own.
    A 1x1 sector is its diagonal entry with a unit vector.  The sectors of
    one size >= 2 go to eig as one stack, and their matrices are dropped
    before the next size is filled.  Returns (vals, blocks), or (vals,
    blocks, left_blocks) with left, where vals[i] belongs to column i and
    each sector is a block with rows = cols = its indices.  Right-only
    stacks go to np.linalg.eig, which solves each matrix of a stack as it
    would solve it alone; scipy.linalg.eig, imported here at first use, is
    called one matrix at a time, only for the left vectors, which numpy
    does not return.  Both run LAPACK geev.
    """
    rows, cols, values = entries
    labels = _components(n, rows[values != 0], cols[values != 0])
    size = np.bincount(labels, minlength=n)[labels]
    # nodes grouped by sector, sectors by smallest node; rank within sector
    nodes = np.argsort(labels, kind="stable")
    start = np.flatnonzero(np.r_[True, np.diff(labels[nodes]) != 0])
    rank = np.empty(n, dtype=np.intp)
    rank[nodes] = np.arange(n) - np.repeat(start, np.diff(np.r_[start, n]))
    inside = labels[rows] == labels[cols]
    vals = np.empty(n, dtype=complex)
    blocks, lblocks = [], []
    for b in np.unique(size):
        idx = nodes[size[nodes] == b].reshape(-1, b)
        if b == 1:
            diag = np.zeros(n, dtype=values.dtype)
            on = rows == cols
            diag[rows[on]] = values[on]
            vals[idx[:, 0]] = diag[idx[:, 0]]
            # eig checks its own blocks; the 1x1 sectors bypass it
            if not np.isfinite(vals[idx[:, 0]]).all():
                raise ValueError("array must not contain infs or NaNs")
            vecs = np.ones((idx.shape[0], 1, 1), dtype=complex)
            lvecs = vecs.copy() if left else None
        else:
            slot = np.empty(n, dtype=np.intp)
            slot[idx] = np.arange(idx.shape[0])[:, None]
            e = np.flatnonzero(inside & (size[rows] == b))
            mats = np.zeros((idx.shape[0], b, b), dtype=values.dtype)
            mats[slot[rows[e]], rank[rows[e]], rank[cols[e]]] = values[e]
            if left:
                import scipy.linalg
                vecs, lvecs = np.empty(mats.shape, dtype=complex), np.empty(mats.shape, dtype=complex)
                for t, mat in enumerate(mats):
                    vals[idx[t]], lvecs[t], vecs[t] = scipy.linalg.eig(mat, left=True)
            else:
                vals[idx], vecs = np.linalg.eig(mats)
                vecs = vecs.astype(complex, copy=False)
            del mats
        blocks.append((idx, idx, vecs))
        lblocks.append((idx, idx, lvecs if left else None))
    return (vals, blocks, lblocks) if left else (vals, blocks)


def hermitian_representative(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Best Hermitian phase rotation of a matrix.

    Finds the phase theta minimizing the anti-Hermitian residual of
    m * exp(i theta) and returns (Hermitian part of the rotated matrix,
    relative residual).  Eigensolvers return real-eigenvalue
    eigenmatrices with arbitrary phases; this recovers the Hermitian
    representative they are proportional to.
    """
    h1 = 0.5 * (m + m.conj().T)
    h2 = (m - m.conj().T) / 2j
    g11 = np.vdot(h2, h2).real
    g22 = np.vdot(h1, h1).real
    g12 = np.vdot(h1, h2).real
    gram = np.array([[g11, g12], [g12, g22]])
    w, u = np.linalg.eigh(gram)
    c, s = u[:, 0]
    theta = np.arctan2(s, c)
    rot = m * np.exp(1j * theta)
    herm = 0.5 * (rot + rot.conj().T)
    anti = 0.5 * (rot - rot.conj().T)
    scale = max(np.linalg.norm(m), 1e-300)
    return herm, float(np.linalg.norm(anti) / scale)


def _canonical_sign(m: np.ndarray) -> np.ndarray:
    """Fix the +-1 ambiguity of a Hermitian matrix deterministically."""
    flat = m.reshape(-1)
    k = int(np.argmax(np.abs(flat)))
    piv = flat[k]
    ref = piv.real if abs(piv.real) >= abs(piv.imag) else piv.imag
    return -m if ref < 0 else m


# ---------------------------------------------------------------------------
# Liouvillian spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues plus unit eigenvectors in a fixed inner-product space.

    blocks holds the vectors one sector at a time, as the stacks of
    blocks described above; a dense (m, n) array is accepted in their
    place, as one block.  vectors is the dense array, scattered from the
    blocks on first use.
    """

    values: np.ndarray
    blocks: tuple
    zero_mask: np.ndarray

    def __post_init__(self):
        if isinstance(self.blocks, np.ndarray):
            self.__dict__["vectors"] = self.blocks
            object.__setattr__(self, "blocks", tuple(_as_blocks(self.blocks)))

    @property
    def size(self) -> int:
        return len(self.values)

    @cached_property
    def vectors(self) -> np.ndarray:
        return _scatter(self.blocks)


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigensystem of a trace-preserving generator.

    right_mats[i] has unit Hilbert-Schmidt norm; left_mats[i] is scaled
    so that Tr(left_mats[i] @ right_mats[j]) = delta_ij wherever no
    defect flag is set.  For flagged (near-defective) indices the left
    matrix is kept at unit norm and unscaled.
    """

    space: HilbertSpace
    eigenvalues: np.ndarray
    right_mats: np.ndarray
    left_mats: np.ndarray
    defect_flags: np.ndarray
    steady_state: Operator
    zero_indices: tuple[int, ...]
    zero_sector_rank: int

    @property
    def dim(self) -> int:
        return self.space.dim

    def right(self, i: int) -> Operator:
        return Operator(self.space, self.right_mats[i])

    def right_vectors(self) -> np.ndarray:
        """Vectorized right eigenmatrices as unit columns, shape (D^2, n)."""
        return self.right_mats.reshape(len(self.eigenvalues), -1).T.copy()

    def mode_weights(self, rho0: Operator) -> np.ndarray:
        """Expansion coefficients c_i = Tr(sigma_i rho0)."""
        return np.array([np.trace(s @ rho0.matrix) for s in self.left_mats])


def _cluster_labels(vals: np.ndarray, tol, point: np.ndarray | None = None) -> np.ndarray:
    """Complex-plane clusters of vals, replaced in place by their means.

    The rule is sequential: each unlabelled eigenvalue, in index order,
    claims every unlabelled eigenvalue within tol, and the cluster is
    replaced by its mean.  A mean within tol of the real axis is made
    real; otherwise the unlabelled eigenvalues within tol of its conjugate
    form the partner cluster, which takes the exact conjugate mean, so a
    conjugate pair sorts by Im, not by the last bit of Re.  Clusters are
    numbered in the order they are made.

    With point, vals holds the spectra of several grid points, and tol is
    a scalar or one tolerance per value (its point's): the rule runs on
    each point's values alone, as if called for that point.

    A step never reaches past 2 tol from its seed or the seed's conjugate,
    so the rule runs separately in each group of the graph that joins
    values within 3 tol once folded onto Im >= 0.  Its edges are searched
    only between values in the same or adjacent cells of a 3 tol square
    grid, so the pairs tested grow with the cluster sizes, not with n:
    a window on the real parts alone tested 8M pairs (369 MB) on the
    purely imaginary spectrum of a closed example3 at levels=8.  Each
    point's cells are shifted past the previous point's along the real
    axis, so no edge joins two points.  Groups of one and two, mostly
    conjugate pairs, are settled in whole-array steps.
    """
    n = vals.size
    if not n:
        return np.zeros(0, dtype=np.intp)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    point = np.zeros(n, dtype=np.intp) if point is None else point
    # the distinct folded values of each point, ordered by point
    folded = vals.real + 1j * np.abs(vals.imag)
    order = np.lexsort((folded.imag, folded.real, point))
    f, g = folded[order], point[order]
    new = np.concatenate(([True], (f[1:] != f[:-1]) | (g[1:] != g[:-1])))
    pts, first, at = f[new], order[new], g[new]
    same = np.empty(n, dtype=np.intp)
    same[order] = np.cumsum(new) - 1
    r = 3.0 * tol[first]
    # complex cell keys sort lexicographically; half the 3 x 3 neighbourhood
    # suffices, as every edge is found from one of its two ends
    re, im = np.floor(pts.real / r), np.floor(pts.imag / r)
    lead = np.flatnonzero(np.diff(at, prepend=-1))
    lo = np.minimum.reduceat(re, lead)
    width = np.maximum.reduceat(re, lead) - lo + 2
    cell = re + np.repeat(np.cumsum(width) - width - lo, np.diff(lead, append=at.size)) + 1j * im
    by_cell = np.argsort(cell)
    cell = cell[by_cell]
    target = (cell[:, None] + np.array([0, 1j, 1 - 1j, 1, 1 + 1j])).ravel()
    lo = np.searchsorted(cell, target)
    width = np.searchsorted(cell, target, side="right") - lo
    a = by_cell[np.repeat(np.arange(target.size) // 5, width)]
    b = by_cell[np.repeat(lo - np.cumsum(width) + width, width) + np.arange(width.sum())]
    near = (np.abs(pts[a] - pts[b]) <= r[a]) & (at[a] == at[b])
    group = _components(n, np.concatenate((first[a[near]], first[same])),
                        np.concatenate((first[b[near]], np.arange(n))))
    size = np.bincount(group, minlength=n)[group]
    # a cluster is keyed by its seed and whether it is the partner cluster
    key = 2 * np.arange(n)

    def settle(idx, mean):
        vals[idx] = np.where(np.abs(mean.imag) <= tol[idx], mean.real, mean)

    # the group's label is its smallest member, which seeds it; np.mean
    # sums from +0, and 0.0 + x reproduces that for the signed zeros
    j = np.flatnonzero((size == 2) & (group != np.arange(n)))
    i = group[j]
    seed = 0.0 + vals[i]
    merged = np.abs(vals[j] - vals[i]) <= tol[i]
    partner = ~merged & (np.abs(seed.imag) > tol[i]) & (np.abs(vals[j] - seed.conj()) <= tol[i])
    alone = ~(merged | partner)
    key[j[merged]], key[j[partner]] = key[i[merged]], key[i[partner]] + 1
    mean = (seed[merged] + vals[j[merged]]) / 2
    settle(i[merged], mean)
    settle(j[merged], mean)
    vals[i[partner]], vals[j[partner]] = seed[partner], seed[partner].conj()
    single = np.concatenate((np.flatnonzero(size == 1), i[alone], j[alone]))
    settle(single, 0.0 + vals[single])

    for root in np.unique(group[size > 2]):
        idx = np.flatnonzero(group == root)
        v, free, t = vals[idx], np.ones(idx.size, dtype=bool), tol[root]
        for p in range(idx.size):
            if not free[p]:
                continue
            members = free & (np.abs(v - v[p]) <= t)
            mean = v[members].mean()
            free &= ~members
            key[idx[members]] = 2 * idx[p]
            if abs(mean.imag) <= t:
                v[members] = mean.real
                continue
            v[members] = mean
            partners = free & (np.abs(v - mean.conjugate()) <= t)
            free &= ~partners
            key[idx[partners]] = 2 * idx[p] + 1
            v[partners] = mean.conjugate()
        vals[idx] = v
    return np.unique(key, return_inverse=True)[1]


def _cluster_sort(n: int, entries, vals: np.ndarray, blocks, starts=(0,)):
    """Unit right vectors, complex-plane cluster means and the sort.

    starts[p] is the first index of grid point p (see _stack_entries); the
    tolerance, the clusters and the sort are each point's own.  Returns
    the sorted vals, the permuted blocks, the cluster labels and the
    permutation applied, for arrays paired with the input columns.
    """
    # a defective eigenvalue splits by O(sqrt(eps ||L||)) in double
    # precision; clustering just above that scale lets the cluster mean
    # restore O(eps) accuracy at exceptional points.
    # sqrt(||L||_1 ||L||_inf) bounds ||L||_2 from above without an SVD
    # (1.0-1.6x the 2-norm on the bundled models, so the tolerance grows
    # by at most sqrt(1.6) = 1.27x); both sums run over the entries in
    # row-major order
    rows, cols, values = entries
    starts = np.asarray(starts)
    mag = np.abs(values)
    norm_bound = np.sqrt(np.maximum.reduceat(np.bincount(cols, mag, n), starts)
                         * np.maximum.reduceat(np.bincount(rows, mag, n), starts))
    tol = np.maximum(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    # clustering before the sort matters: rounding of L interleaves exactly
    # degenerate eigenvalues in (|Re|, Im) order.  Only neighbour groups of
    # three or more, found on a grid of cells, run the rule one by one.
    point = _points(starts, n)
    labels = _cluster_labels(vals, tol[point], point)
    _unit_columns(blocks)
    order = _sort_indices(np.abs(vals.real), vals.imag, blocks, point)
    return vals[order], _permute(blocks, order), labels[order], order


def _zero_sector(vals: np.ndarray, blocks, zero_tol: float, starts=(0,)):
    """Zero mask, the blocks with each point's orthonormal zero-sector
    basis q in place of its zero-sector columns, and per grid point the
    dense zero block (n_p x z_p) and its q.

    The sector is guaranteed diagonalizable, so its span is an invariant
    subspace.  q is taken on the dense columns of the whole sector, and
    can reach rows outside the blocks of its columns (on a closed example3
    it does, by up to 1e-8): those blocks are then merged with the blocks
    it reaches, so that no entry is cut off.  Exact zeros outside a block
    are stored as +0.0 whatever their sign.  The points whose zero blocks
    have one shape take one stacked QR.
    """
    n, starts = vals.size, np.asarray(starts)
    zero_mask = np.abs(vals) <= zero_tol
    count = np.add.reduceat(zero_mask, starts)
    if not count.all():
        exc = SpectralError(f"not a Liouvillian: no eigenvalue within zero_tol = {zero_tol:.2e}")
        exc.point = int(np.argmin(count))
        raise exc
    zero = np.flatnonzero(zero_mask)
    size = np.diff(starts, append=n)
    # point p's zero block is flat[base[p]:] in C order, the blocks of one
    # shape (key) next to each other, and zero column j is its column zcol[j]
    key, shape = np.unique(size * (n + 1) + count, return_inverse=True)
    area = size * count
    by_shape = np.argsort(shape, kind="stable")
    base = np.empty_like(area)
    base[by_shape] = np.cumsum(area[by_shape]) - area[by_shape]
    zpoint = _points(starts, n)[zero]
    zfirst = np.cumsum(count) - count
    zcol = np.arange(zero.size) - zfirst[zpoint]

    def place(j, rows):
        p = zpoint[j]
        return base[p] + (rows - starts[p]) * count[p] + zcol[j]

    j, rows, v = _columns(blocks, zero)
    flat = np.zeros(area.sum(), dtype=complex)
    flat[place(j, rows)] = v
    q, at = np.empty_like(flat), 0
    for m, z, span in zip(*np.divmod(key, n + 1), np.bincount(shape, area).astype(int)):
        q[at:at + span] = np.linalg.qr(flat[at:at + span].reshape(-1, m, z))[0].ravel()
        at += span
    outside = q != 0
    outside[place(j, rows)] = False
    if outside.any():
        f = np.flatnonzero(outside)
        p = by_shape[np.searchsorted(base[by_shape], f, side="right") - 1]
        r, c = np.divmod(f - base[p], count[p])
        blocks = _merge(blocks, starts[p] + r, zero[zfirst[p] + c])
    for s, t, u, j in _find(blocks, zero):
        r, _, v = blocks[s]
        v[t, :, u] = q[place(j[:, None], r[t])]
    return (zero_mask, blocks,
            *([x[base[p]:base[p] + area[p]].reshape(size[p], count[p]) for p in range(starts.size)]
              for x in (flat, q)))


def _check_trace_row(liou: SuperOp) -> None:
    """Refuse a generator that is not trace preserving."""
    if not is_trace_preserving(liou):
        raise SpectralError(f"not a Liouvillian: trace row |vec(1)^dag L| = "
                            f"{np.linalg.norm(trace_row(liou)):.2e} exceeds 1e-12 |L|_F = "
                            f"{1e-12 * np.linalg.norm(liou.entries[2]):.2e}")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------
#
# The eigensystems of several matrices, one per grid point, are solved as
# one: the block-diagonal matrix diag(M_1, ..., M_P) has every point's
# sectors as its sectors, so each sector size takes one stacked eig for
# the whole grid.  Point p owns indices starts[p] .. starts[p + 1] - 1, the
# stages above keep each point's tolerance, clusters, order and zero
# sector its own, and _split returns what each point alone would give.

def _each_point(fn, items) -> list:
    """[fn(x) for x in items]; an exception raised for items[k] leaves
    with its point attribute set to k, which sweep reads to name the grid
    index."""
    out = []
    for k, x in enumerate(items):
        try:
            out.append(fn(x))
        except Exception as exc:
            exc.point = k
            raise
    return out


def _points(starts: np.ndarray, n: int) -> np.ndarray:
    """The grid point of each of the n indices."""
    return np.repeat(np.arange(len(starts)), np.diff(starts, append=n))


def _stack_entries(lists, sizes):
    """The coordinate lists of the block-diagonal matrix of the matrices
    with lists (rows, cols, values) and the given sizes, and the first
    index of each."""
    starts = np.cumsum(sizes, dtype=np.intp) - sizes
    parts = [(r + s, c + s, v) for (r, c, v), s in zip(lists, starts)]
    return tuple(np.concatenate(x) for x in zip(*parts)), starts


def _grid_eig(n: int, entries, starts):
    """_block_eig of the stacked lists; a non-finite entry's error names
    the first point that holds one."""
    try:
        return _block_eig(n, entries)
    except ValueError as exc:
        bad = np.flatnonzero(~np.isfinite(entries[2]))
        if bad.size:
            exc.point = int(np.searchsorted(starts, entries[0][bad[0]], side="right") - 1)
        raise


def _split(vals: np.ndarray, blocks, zero_mask: np.ndarray, starts) -> tuple:
    """One Eigensystem per grid point, its rows and columns numbered from
    0.  Every stack lists its blocks point by point, so each point takes a
    slice of each stack."""
    ends = np.append(starts[1:], vals.size)
    per = [[] for _ in starts]
    for r, c, v in blocks:
        cut = np.searchsorted(r[:, 0], np.append(0, ends))
        for p in np.flatnonzero(np.diff(cut)):
            lo, hi = cut[p], cut[p + 1]
            per[p].append((r[lo:hi] - starts[p], c[lo:hi] - starts[p], v[lo:hi]))
    return tuple(Eigensystem(vals[a:b], tuple(bl), zero_mask[a:b])
                 for a, b, bl in zip(starts, ends, per))


def liouvillian_eigensystems(lious, zero_tol: float = DEFAULT_ZERO_TOL) -> tuple:
    """liouvillian_eigensystem of each generator, all solved as one (see
    "grids"); each result is bit for bit that of its generator alone.  An
    exception raised for generator k carries point = k."""
    _each_point(_check_trace_row, lious)
    entries, starts = _stack_entries([liou.entries for liou in lious],
                                     [liou.dim ** 2 for liou in lious])
    n = starts[-1] + lious[-1].dim ** 2
    vals, blocks = _grid_eig(n, entries, starts)
    vals, blocks, _, _ = _cluster_sort(n, entries, vals, blocks, starts)
    zero_mask, blocks, _, _ = _zero_sector(vals, blocks, zero_tol, starts)
    for _, _, v in blocks:
        _canonical_phase(v, out=v)
    return _split(vals, blocks, zero_mask, starts)


def liouvillian_eigensystem(liou: SuperOp,
                            zero_tol: float = DEFAULT_ZERO_TOL) -> Eigensystem:
    """Eigenvalues, unit right eigenmatrices and zero mask of a generator.

    One right-only eig per sector, clustered, sorted and with the zero sector
    orthonormalized as in analyze_liouvillian; every vector carries the
    canonical phase.  Raises SpectralError when the trace row does not
    vanish or no eigenvalue lies within zero_tol.
    """
    return liouvillian_eigensystems([liou], zero_tol)[0]


def analyze_liouvillian(liou: SuperOp,
                        zero_tol: float = DEFAULT_ZERO_TOL,
                        defect_tol: float = DEFAULT_DEFECT_TOL) -> Spectrum:
    """Full eigensystem of a trace-preserving generator.

    The eigenvalues, order and zero sector of liouvillian_eigensystem,
    plus what needs the left vectors: the steady state (the
    trace-carrying combination of the zero sector, validated to be
    Hermitian, positive semidefinite and trace one) and biorthonormal
    left eigenmatrices.
    """
    _check_trace_row(liou)
    n = liou.dim ** 2
    # left vector i is paired with eigenvalue i:
    # lvecs[:, i]^dag L = vals[i] lvecs[:, i]^dag
    vals, blocks, lblocks = _block_eig(n, liou.entries, left=True)
    vals, blocks, labels, order = _cluster_sort(n, liou.entries, vals, blocks)
    _unit_columns(lblocks)
    lvecs = _scatter(_permute(lblocks, order))
    sizes = np.bincount(labels)
    zero_mask, blocks, (zblock,), (q,) = _zero_sector(vals, blocks, zero_tol)
    svals = np.linalg.svd(zblock, compute_uv=False)
    zero_rank = int(np.sum(svals > 1e-8 * svals[0]))
    vecs = _scatter(blocks)
    # q's own bits, signed zeros off the sector blocks included
    vecs[:, zero_mask] = q

    # steady state: trace-carrying combination of the zero sector
    trace_vec = vectorize(np.eye(liou.dim))
    ss_vec = q @ (q.conj().T @ trace_vec)
    if np.linalg.norm(ss_vec) < 1e-12:
        raise SpectralError("zero sector carries no trace; cannot extract a steady state")
    ss = devectorize(ss_vec)
    ss = 0.5 * (ss + ss.conj().T)
    ss = ss / np.trace(ss).real
    if np.linalg.eigvalsh(ss).min() < -1e-10:
        raise SpectralError("steady-state extraction produced an indefinite matrix")

    # deterministic representatives: Hermitian rotation for isolated real
    # eigenvalues, canonical phase otherwise
    phased = np.ones(n, dtype=bool)
    isolated_real = ~zero_mask & (sizes[labels] == 1) & (np.abs(vals.imag) <= zero_tol)
    for i in np.flatnonzero(isolated_real):
        m, resid = hermitian_representative(devectorize(vecs[:, i]))
        if resid <= 1e-8:
            vecs[:, i] = _canonical_sign(m / np.linalg.norm(m)).reshape(-1)
            phased[i] = False
    vecs[:, phased] = _canonical_phase(vecs[:, phased])

    # biorthonormalize within each cluster; a singular overlap block marks
    # a (near-)defective cluster, whose left vectors stay at unit norm
    left = np.zeros_like(vecs)
    flags = np.zeros(n, dtype=bool)
    for cluster in np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1]):
        y = lvecs[:, cluster]
        x = vecs[:, cluster]
        b = y.conj().T @ x
        smin = np.linalg.svd(b, compute_uv=False)[-1]
        if smin < defect_tol:
            flags[cluster] = True
            left[:, cluster] = y
        else:
            left[:, cluster] = y @ np.linalg.inv(b).conj().T

    d = liou.dim
    right_mats = np.ascontiguousarray(vecs.T).reshape(n, d, d)
    # store sigma_i = devec(y_i)^dag so that Tr(sigma_i rho_j) = y_i^dag x_j
    left_mats = left.conj().T.reshape(n, d, d).transpose(0, 2, 1).copy()

    return Spectrum(
        space=liou.space,
        eigenvalues=vals,
        right_mats=right_mats,
        left_mats=left_mats,
        defect_flags=flags,
        steady_state=Operator(liou.space, ss),
        zero_indices=tuple(int(i) for i in np.flatnonzero(zero_mask)),
        zero_sector_rank=zero_rank,
    )


# ---------------------------------------------------------------------------
# effective-Hamiltonian spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NhhSpectrum:
    """Eigensystem of an effective non-Hermitian Hamiltonian.

    eigenvectors holds unit columns; near_defective is set when the
    eigenvector matrix is ill-conditioned (eigenvalues have merged).
    The induced no-jump eigenvalues -i(h_l - h_m^*) reproduce the
    spectrum of the no-jump generator as a multiset, with eigenmatrices
    |phi_l><phi_m|.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    near_defective: bool

    def induced_eigenvalues(self) -> np.ndarray:
        """No-jump eigenvalues -i(h_l - h_m^*), flat index l*D + m."""
        h = self.eigenvalues
        return ((-1j * h)[:, None] + (1j * h.conj())[None, :]).reshape(-1)

    def induced_eigenmatrix(self, l: int, m: int) -> np.ndarray:
        """Unit-norm eigenmatrix |phi_l><phi_m| of the no-jump generator."""
        return np.outer(self.eigenvectors[:, l], self.eigenvectors[:, m].conj())


def nhh_eigensystems(mats) -> tuple:
    """nhh_eigensystem of each matrix, all solved as one (see "grids");
    each result is bit for bit that of its matrix alone.  An exception
    raised for matrix k carries point = k."""
    entries, starts = _stack_entries(_each_point(_dense_entries, mats),
                                     [np.shape(mat)[0] for mat in mats])
    n = starts[-1] + np.shape(mats[-1])[0]
    vals, blocks = _grid_eig(n, entries, starts)
    _unit_columns(blocks)
    order = _sort_indices(np.abs(vals.imag), vals.real, blocks, _points(starts, n))
    blocks = _permute(blocks, order)
    for _, _, v in blocks:
        _canonical_phase(v, out=v)
    return _split(vals[order], blocks, np.zeros(n, dtype=bool), starts)


def nhh_eigensystem(mat: np.ndarray) -> Eigensystem:
    """Eigenvalues and unit right eigenvectors of H_eff, sorted by (|Im h|, Re h),
    in canonical phase; the zero mask is empty."""
    return nhh_eigensystems([mat])[0]


def analyze_nhh(heff: Operator) -> NhhSpectrum:
    """nhh_eigensystem of H_eff.  Defectiveness is a flag, not an error: the
    eigenvector-matrix condition number is compared against NHH_DEFECT_COND."""
    es = nhh_eigensystem(heff.matrix)
    cond = np.linalg.cond(es.vectors)
    return NhhSpectrum(es.values, es.vectors, bool(cond > NHH_DEFECT_COND))


# ---------------------------------------------------------------------------
# eigenmatrix decompositions
# ---------------------------------------------------------------------------

def pm_decomposition(rho: Operator) -> tuple[Operator, Operator]:
    """Split a Hermitian traceless eigenmatrix into two density matrices.

    Diagonalizes rho and regroups the positive and negative eigenvalue
    parts, each rescaled to trace one, so that rho is proportional to
    (plus - minus).  The wave functions inside plus/minus are the ones
    comparable with effective-Hamiltonian eigenvectors.
    """
    m = rho.matrix
    scale = max(np.abs(m).max(), 1e-300)
    if np.abs(m - m.conj().T).max() > 1e-8 * scale:
        raise HermiticityError("pm_decomposition requires a Hermitian input")
    dec = hermitian_spectral_decomposition(Operator(rho.space, 0.5 * (m + m.conj().T)), tol=np.inf)
    p = dec.eigenvalues
    tiny = 1e-12 * np.abs(p).max()
    pos = p > tiny
    neg = p < -tiny
    if not pos.any() or not neg.any():
        raise SpectralError("not traceless: eigenvalues do not change sign")
    vp = dec.eigenvectors[:, pos]
    vm = dec.eigenvectors[:, neg]
    plus = (vp * p[pos]) @ vp.conj().T / p[pos].sum()
    minus = (vm * p[neg]) @ vm.conj().T / p[neg].sum()
    return Operator(rho.space, plus), Operator(rho.space, minus)


def sym_antisym(rho: Operator) -> tuple[Operator, Operator]:
    """Hermitian combinations rho + rho^dag and i(rho - rho^dag)."""
    sym = rho.matrix + rho.matrix.conj().T
    anti = 1j * (rho.matrix - rho.matrix.conj().T)
    return Operator(rho.space, sym), Operator(rho.space, anti)


# ---------------------------------------------------------------------------
# automated lemma checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        width = max(len(c.name) for c in self.checks)
        lines = [f"{c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}  {c.detail}"
                 for c in self.checks]
        return "\n".join(lines)


def check_lemmas(spectrum: Spectrum, model: LindbladModel,
                 t: float = 0.1) -> LemmaReport:
    """Run the structural checks every Liouvillian spectrum must satisfy.

    eigenmode-decay       exp(L t) rho_i = exp(lambda_i t) rho_i
    traceless-decay       lambda_i != 0 implies Tr rho_i = 0 (and a
                          nonzero trace pins the eigenvalue to zero)
    conjugate-pairing     lambda_i* is an eigenvalue, with eigenmatrix
                          rho_i^dag
    commuting-jumps       if every jump operator commutes with H_eff,
                          all eigenmatrices are of the form
                          |phi_l><phi_m|
    zero-sector-
    diagonalizable        the zero-eigenvalue sector is non-defective
    no-steady-state-ep    no zero-eigenvalue branch carries a defect
                          flag (an EP cannot live on the steady state)
    """
    liou = assemble_liouvillian(model)
    mat = liou.matrix
    n = len(spectrum.eigenvalues)
    vals = spectrum.eigenvalues
    vecs = spectrum.right_vectors()
    scale = max(np.linalg.norm(mat), 1e-300)
    checks = []

    # L1: eigenmode propagation
    import scipy.linalg
    prop = scipy.linalg.expm(mat * t)
    resid = max(
        float(np.linalg.norm(prop @ vecs[:, i] - np.exp(vals[i] * t) * vecs[:, i]))
        for i in range(n))
    checks.append(LemmaCheck("eigenmode-decay", resid <= 1e-8,
                             f"max |exp(Lt) rho - exp(lambda t) rho| = {resid:.2e} at t={t}"))

    # L2: a nonzero trace forces a zero eigenvalue (equivalently, every
    # decaying eigenmatrix is traceless)
    traces = np.array([abs(np.trace(spectrum.right_mats[i])) for i in range(n)])
    nonzero = np.abs(vals) > DEFAULT_ZERO_TOL
    ok2 = not np.any(nonzero & (traces > 1e-8))
    worst = float(traces[nonzero].max()) if nonzero.any() else 0.0
    checks.append(LemmaCheck("traceless-decay", ok2,
                             f"max |Tr rho_i| over decaying modes = {worst:.2e}"))

    # L3: conjugate pairing
    pair_tol = max(1e-8, 1e-10 * scale)
    worst3 = 0.0
    ok3 = True
    for i in range(n):
        partners = np.flatnonzero(np.abs(vals - vals[i].conj()) <= pair_tol)
        if partners.size == 0:
            ok3 = False
            worst3 = np.inf
            break
        span = vecs[:, partners]
        target = vectorize(spectrum.right_mats[i].conj().T)
        coef, *_ = np.linalg.lstsq(span, target, rcond=None)
        resid3 = float(np.linalg.norm(span @ coef - target))
        worst3 = max(worst3, resid3)
    checks.append(LemmaCheck("conjugate-pairing", ok3 and worst3 <= 1e-8,
                             f"max projection residual of rho_i^dag = {worst3:.2e}"))

    # L4: commuting jump operators
    heff = effective_hamiltonian(model).matrix
    comms = [np.abs(g @ heff - heff @ g).max() for g in model.folded_jump_matrices()]
    commuting = all(c <= 1e-12 * max(np.abs(heff).max(), 1.0) for c in comms)
    if commuting and model.jumps:
        nhh = analyze_nhh(effective_hamiltonian(model))
        phi = nhh.eigenvectors
        worst4 = 1.0
        for i in range(n):
            ovl = np.abs(phi.conj().T @ spectrum.right_mats[i] @ phi).max()
            worst4 = min(worst4, float(ovl))
        checks.append(LemmaCheck("commuting-jumps", worst4 >= 1 - 1e-8,
                                 f"min best overlap with |phi_l><phi_m| = {worst4:.12f}"))
    else:
        checks.append(LemmaCheck("commuting-jumps", True,
                                 "not applicable (jump operators do not commute with H_eff)"))

    # L5: zero sector diagonalizable
    zi = list(spectrum.zero_indices)
    mult = len(zi)
    resid5 = max(float(np.linalg.norm(mat @ vecs[:, i])) for i in zi)
    ok5 = spectrum.zero_sector_rank == mult and resid5 <= 1e-8 * scale
    checks.append(LemmaCheck("zero-sector-diagonalizable", ok5,
                             f"multiplicity {mult}, rank {spectrum.zero_sector_rank}, "
                             f"max |L rho| = {resid5:.2e}"))

    # T1 guard: steady-state branches never coalesce
    ok_t1 = not any(spectrum.defect_flags[i] for i in zi)
    checks.append(LemmaCheck("no-steady-state-ep", ok_t1,
                             "zero-eigenvalue branches carry no defect flag"))

    return LemmaReport(tuple(checks))
