"""Spectral analysis of superoperators and effective Hamiltonians.

liouvillian_eigensystem is what spectra, sweeps and the EP search read:
one right-only eig of a trace-preserving generator.  Every eig is taken
one weakly connected sector of the matrix at a time, read from the
coordinate lists of the matrix, by sectors._block_eig: a partner pair
of sectors under the swap P of vec(|m><n|) and vec(|n><m|) is solved
once and the self-conjugate sector as a real matrix, so that the
spectrum is closed under conjugation bit for bit; a generator off that
symmetry by more than 1e-12 |L|_F is refused with SpectralError.  The
right-only solve takes a large sector apart into its units, the
products of H_eff's sectors (the (N_l, N_r) blocks of a Liouvillian
whose jumps lower the excitation numbers), reads their values and
vectors off H_eff's sectors and back-substitutes the vectors, and falls
back to the dense solve of the sector where a residual check fails,
near an EP; the left vectors always come from the dense solve (see
sectors).  The vectors stay in the sector blocks through every stage
below (see "sector blocks"), and an Eigensystem scatters them into a
dense array only when asked to.
Eigenvalues closer than a cluster tolerance are grouped in the complex
plane and replaced by their cluster mean before the sort, and the
zero-eigenvalue sector is orthonormalized inside each sector.  The
grouping rule is sequential; it runs member by member only inside the
neighbour groups, found on a square grid of cells, whose outcome is not
fixed by their first cluster, and settles every other group in
whole-array steps.
analyze_liouvillian runs the same stages on one eig that also returns
the left eigenvectors, already paired: an isolated real mode is
Hermitian by construction (the real eig of its self-conjugate sector)
and takes only a sign, and the clusters are the blocks in which left and
right eigenmatrices are scaled so that Tr(sigma_i rho_j) = delta_ij, on
the dense vector arrays; the steady state comes from the
zero-eigenvalue sector.
Near-defective clusters are flagged instead of force-normalized: the
spectral expansion of the dynamics is invalid exactly at an exceptional
point, and silently rescaled left eigenmatrices there would poison every
downstream coefficient.

There is one result type, Eigensystem: eigenvalues, vectors in sector
blocks, zero mask.  analyze_liouvillian's Spectrum is an Eigensystem
whose right vectors are one dense block, plus the left vectors, defect
flags and steady state; analyze_nhh's NhhSpectrum is H_eff's
Eigensystem plus a near-defective flag.

Sorting convention: |Re(lambda)| ascending, ties broken by Im(lambda)
ascending.  For a generator, |Re| values within the cluster tolerance
of the next smaller one count as tied, so that values equal but for
rounding order by Im, then by |Re|; only exact ties of both fall through
to a deterministic tiebreak on the eigenvector entries (lexicographic).
For effective Hamiltonians the analogous order is |Im(h)| ascending then
Re(h), compared exactly: the no-jump generator maps h onto
-i(h_l - h_m^*), so Im(h) plays the role of Re(lambda).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HermiticityError, SpectralError
from .ops_core import (
    DEFAULT_DEFECT_TOL,
    DEFAULT_ZERO_TOL,
    HilbertSpace,
    Operator,
    hermitian_spectral_decomposition,
)
from .sectors import _block_eig, _components, _listed, _partner, _ragged
from .superop import (
    LindbladModel,
    SuperOp,
    _dense_entries,
    _trace_norms,
    assemble_liouvillian,
    devectorize,
    effective_hamiltonian,
    vectorize,
)

# eigenvector-matrix condition number that flags H_eff near-defective
NHH_DEFECT_COND = 1e8
# entries of the zero-padded tie keys that _sort_indices builds at once,
# counted as columns times the widest union of supports that a tie of the
# batch can have; the largest tie-break of the benchmark workloads
# (spectrum-dephasing30: 898 columns in ties of up to 30 1 x 1 sectors)
# holds 26,940
TIE_BATCH_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _lex_order(major: np.ndarray, minor: np.ndarray, point: np.ndarray | None = None):
    """np.lexsort((minor, major, point)) of finite float keys (point
    integer): the stable argsort of the complex keys major + i minor,
    which numpy orders by real part, then imaginary part, then a stable
    argsort by point where it takes more than one value.  On the 2,673
    values of a 33-point ep-locate-l3 grid it takes 280 us against
    lexsort's 380 us, and 15 against 250 us on the 1,879 of its runs."""
    key = np.empty(major.shape, dtype=complex)
    key.real, key.imag = major, minor
    order = np.argsort(key, kind="stable")
    if point is not None and (point != point[:1]).any():
        order = order[np.argsort(point[order], kind="stable")]
    return order


def _sort_indices(primary: np.ndarray, secondary: np.ndarray, blocks,
                  point: np.ndarray | None = None, tol=None) -> np.ndarray:
    """Total deterministic order: grid point (when given), primary key,
    secondary key, then the eigenvector entries (re, im of each,
    lexicographic), which only ever break exact ties of the keys.  Entries
    outside the union of a tie's supports are 0 in each of its vectors, so
    only that union is compared, and the ties are broken in lexsorts led
    by the tie, one batch of whole ties at a time (_tie_batches).  The
    zeros that pad a tie's keys to the batch's width are shared by all its
    members, so the batches give the order of one lexsort over all ties.

    With tol (one per value), primary keys are compared in runs: in
    ascending order, a key more than tol above the one before starts a
    new run, and inside a run the order is by the secondary key, then the
    primary key, so that keys equal but for rounding do not order by
    their last bits."""
    order = _lex_order(primary, secondary, point)
    if point is None:
        point = np.zeros(primary.size, dtype=np.intp)
    p, q, g = primary[order], secondary[order], point[order]
    if tol is not None:
        step, same = np.diff(p), g[1:] == g[:-1]
        close = (step > 0) & (step <= tol[order][1:]) & same
        if close.any():
            # the runs that join distinct keys, each re-sorted in place by
            # the secondary key; the sort is stable, so equal secondary keys
            # stay in primary order
            run = np.cumsum(np.r_[True, ~(close | (step == 0)) | ~same])
            joined = np.zeros(run[-1] + 1, dtype=bool)
            joined[run[1:][close]] = True
            at = np.flatnonzero(joined[run])
            cols = order[at]
            order[at] = cols[_lex_order(run[at].astype(float), secondary[cols])]
            p, q, g = primary[order], secondary[order], point[order]
    after = np.r_[False, (p[1:] == p[:-1]) & (q[1:] == q[:-1]) & (g[1:] == g[:-1])]
    at = np.flatnonzero(after | np.r_[after[1:], False])
    if at.size:
        tie, cols = np.cumsum(~after[at]), order[at]
        for lo, hi in _tie_batches(blocks, cols, tie):
            keys = _support_rows(blocks, cols[lo:hi], tie[lo:hi])
            order[at[lo:hi]] = cols[lo:hi][np.lexsort((*keys.T[::-1], tie[lo:hi]))]
    return order


def _tie_batches(blocks, cols: np.ndarray, tie: np.ndarray) -> list:
    """Slices (lo, hi) of cols, whose ties are runs of consecutive
    numbers, into batches of whole ties with at most TIE_BATCH_ENTRIES
    padded key entries (a larger tie is a batch alone).  A tie's union of
    supports is bounded by the rows of the distinct blocks its columns
    sit in."""
    first = np.cumsum([0] + [r.shape[0] for r, _, _ in blocks])
    block = np.empty(sum(c.size for _, c, _ in blocks), dtype=np.intp)
    height = np.empty(first[-1], dtype=np.intp)
    for s, (r, c, _) in enumerate(blocks):
        block[c] = first[s] + np.arange(r.shape[0])[:, None]
        height[first[s]:first[s + 1]] = r.shape[1]
    pairs = np.unique((tie - tie[0]) * first[-1] + block[cols])
    width = np.bincount(pairs // first[-1], height[pairs % first[-1]])
    end = np.flatnonzero(np.r_[tie[1:] != tie[:-1], True]) + 1
    cuts, lo, t = [], 0, 0
    while t < end.size:
        # both factors grow with the ties taken
        size = (end[t:] - lo) * np.maximum.accumulate(width[t:])
        t += max(int(np.searchsorted(size, TIE_BATCH_ENTRIES, side="right")), 1)
        cuts.append((lo, end[t - 1]))
        lo = end[t - 1]
    return cuts


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

    eigenvalues: np.ndarray
    blocks: tuple
    zero_mask: np.ndarray

    def __post_init__(self):
        if isinstance(self.blocks, np.ndarray):
            self.__dict__["vectors"] = self.blocks
            object.__setattr__(self, "blocks", tuple(_as_blocks(self.blocks)))

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def vectors(self) -> np.ndarray:
        return _scatter(self.blocks)


@dataclass(frozen=True)
class Spectrum(Eigensystem):
    """Sorted eigensystem of a trace-preserving generator, with its left
    eigenvectors.

    The right vectors are the vectorized eigenmatrices rho_i at unit
    Hilbert-Schmidt norm, one dense block.  Column i of left_vectors is
    y_i = vec(sigma_i^dag), scaled so that Tr(sigma_i rho_j) =
    y_i^dag vec(rho_j) = delta_ij wherever no defect flag is set; for
    flagged (near-defective) indices it is kept at unit norm and unscaled.
    """

    space: HilbertSpace
    left_vectors: np.ndarray
    defect_flags: np.ndarray
    steady_state: Operator
    zero_sector_rank: int

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def right_mats(self) -> np.ndarray:
        """rho_i, shape (n, D, D), C-contiguous."""
        return np.ascontiguousarray(self.vectors.T).reshape(self.size, self.dim, self.dim)

    @property
    def left_mats(self) -> np.ndarray:
        """sigma_i = devec(y_i)^dag, shape (n, D, D), C-contiguous, so
        that Tr(sigma_i rho_j) = y_i^dag vec(rho_j)."""
        d = self.dim
        return self.left_vectors.conj().T.reshape(self.size, d, d).transpose(0, 2, 1).copy()

    def right(self, i: int) -> Operator:
        return Operator(self.space, self.vectors[:, i].reshape(self.dim, self.dim))

    def mode_weights(self, rho0: Operator) -> np.ndarray:
        """Expansion coefficients c_i = Tr(sigma_i rho0) = y_i^dag vec(rho0)."""
        return self.left_vectors.conj().T @ vectorize(rho0)


def _cluster_labels(vals: np.ndarray, tol, point: np.ndarray | None = None) -> np.ndarray:
    """Complex-plane clusters of vals, replaced in place by their means.

    The rule is sequential: each unlabelled eigenvalue, in index order,
    claims every unlabelled eigenvalue within tol, and the cluster is
    replaced by its mean.  The unlabelled eigenvalues within tol of the
    conjugate of a member are its mirrors.  A mean within tol of the real
    axis is made real, and the cluster takes the mirrors too; otherwise
    the mirrors and the unlabelled eigenvalues within tol of the
    conjugate mean form the partner cluster, which takes the exact
    conjugate mean, so a conjugate pair sorts by Im, not by the last bit
    of Re.  So when a cluster claims one member of a conjugate pair that
    _block_eig returns and the other is still unlabelled, the other joins
    that cluster or its partner: a real value between the two no longer
    leaves one made real on its own.  Clusters are numbered in the order
    they are made.

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
    axis, so no edge joins two points.

    A group whose every member lies within tol of its seed (its smallest
    index), is a mirror of one that does, or (for a mean not made real)
    lies within tol of their conjugate mean, has an outcome fixed in
    advance: one cluster, with its partner when the mean is not made
    real.  Those groups, singletons and conjugate pairs among them, are
    settled in whole-array steps, the means of the first clusters taken
    one cluster size at a time; only the chained groups left run the rule
    member by member (_cluster_chain).
    """
    n = vals.size
    if not n:
        return np.zeros(0, dtype=np.intp)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    point = np.zeros(n, dtype=np.intp) if point is None else point
    # the distinct folded values of each point, ordered by point
    folded = vals.real + 1j * np.abs(vals.imag)
    order = _lex_order(folded.real, folded.imag, point)
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
    b = by_cell[_ragged(lo, width)]
    near = (np.abs(pts[a] - pts[b]) <= r[a]) & (at[a] == at[b])
    group = _components(n, np.concatenate((first[a[near]], first[same])),
                        np.concatenate((first[b[near]], np.arange(n))))
    # a cluster is keyed by its seed and whether it is the partner cluster
    key = 2 * np.arange(n)
    # each group's first cluster: its seed, the smallest member, and every
    # member within tol of it; claimed[offset[g]:offset[g] + count[g]] holds
    # those of seed g in index order
    t = tol[group]
    claim = np.abs(vals - vals[group]) <= t
    claimed = np.flatnonzero(claim)
    claimed = claimed[np.argsort(group[claimed], kind="stable")]
    count = np.bincount(group[claimed], minlength=n)
    offset = np.cumsum(count) - count
    # their means, one mean(axis=1) per cluster size, which gives each
    # cluster's 1-D np.mean bit for bit
    mean = np.zeros(n, dtype=complex)
    for size in np.unique(count[count > 0]):
        seeds = np.flatnonzero(count == size)
        mean[seeds] = vals[claimed[offset[seeds, None] + np.arange(size)]].mean(axis=1)
    # the other members that lie within tol of some member's conjugate
    rest = np.flatnonzero(~claim)
    per = count[group[rest]]
    j = np.repeat(rest, per)
    m = claimed[_ragged(offset[group[rest]], per)]
    mirror = np.zeros(n, dtype=bool)
    mirror[j[np.abs(vals[j] - vals[m].conj()) <= t[j]]] = True
    mean = mean[group]
    real = np.abs(mean.imag) <= t
    # a real cluster takes the mirrors, a complex one leaves them to its
    # partner with the values within tol of its conjugate mean
    partner = ~claim & (mirror | (~real & (np.abs(vals - mean.conj()) <= t)))
    # a group whose every member is in its first cluster or the values
    # that cluster takes is settled whole; the others (chained groups) run
    # the rule
    chained = np.zeros(n, dtype=bool)
    chained[group[~(claim | partner)]] = True
    done = ~chained[group]
    at = done & (claim | (partner & real))
    vals[at] = np.where(real[at], mean[at].real, mean[at])
    key[at] = 2 * group[at]
    at = done & partner & ~real
    vals[at] = mean[at].conj()
    key[at] = 2 * group[at] + 1
    for root in np.flatnonzero(chained):
        _cluster_chain(vals, key, np.flatnonzero(group == root), tol[root])
    return np.unique(key, return_inverse=True)[1]


def _cluster_chain(vals: np.ndarray, key: np.ndarray, idx: np.ndarray, t: float) -> None:
    """The sequential rule of _cluster_labels on the group of values idx
    (ascending), member by member, in place."""
    v, free = vals[idx], np.ones(idx.size, dtype=bool)
    for p in range(idx.size):
        if not free[p]:
            continue
        members = free & (np.abs(v - v[p]) <= t)
        mean = v[members].mean()
        free &= ~members
        mirrors = free & (np.abs(v[:, None] - v[members].conj()) <= t).any(axis=1)
        if abs(mean.imag) <= t:
            members |= mirrors
            free &= ~mirrors
            key[idx[members]] = 2 * idx[p]
            v[members] = mean.real
            continue
        key[idx[members]] = 2 * idx[p]
        v[members] = mean
        partners = mirrors | (free & (np.abs(v - mean.conjugate()) <= t))
        free &= ~partners
        key[idx[partners]] = 2 * idx[p] + 1
        v[partners] = mean.conjugate()
    vals[idx] = v


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
    # row-major order.  The product of their square roots stays finite
    # where their product would overflow (both near 1e154 or above)
    rows, cols, values = entries
    starts = np.asarray(starts)
    mag = np.abs(values)
    norm_bound = (np.sqrt(np.maximum.reduceat(np.bincount(cols, mag, n), starts))
                  * np.sqrt(np.maximum.reduceat(np.bincount(rows, mag, n), starts)))
    tol = np.maximum(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    # clustering before the sort matters: rounding of L interleaves exactly
    # degenerate eigenvalues in (|Re|, Im) order.  Only neighbour groups of
    # three or more, found on a grid of cells, run the rule one by one.
    point = _points(starts, n)
    tol = tol[point]
    labels = _cluster_labels(vals, tol, point)
    _unit_columns(blocks)
    order = _sort_indices(np.abs(vals.real), vals.imag, blocks, point, tol)
    return vals[order], _permute(blocks, order), labels[order], order


def _zero_sector(vals: np.ndarray, blocks, zero_tol: float, starts=(0,)) -> np.ndarray:
    """Zero mask, with each block's zero-sector columns made orthonormal
    in place.

    The sector is guaranteed diagonalizable, and every sector of L is
    invariant, so a sector's share of the kernel is spanned by its own
    zero columns.  Where a block holds two or more, they are replaced by
    the Q of a QR on the block's rows, taken in ascending column number;
    the blocks of one stack with the same number take one stacked QR.  A
    lone zero column is unit already (_unit_columns).  Raises
    SpectralError, with the point, when a grid point has no eigenvalue
    within zero_tol.
    """
    zero_mask = np.abs(vals) <= zero_tol
    count = np.add.reduceat(zero_mask, starts)
    if not count.all():
        exc = SpectralError(f"not a Liouvillian: no eigenvalue within zero_tol = {zero_tol:.2e}")
        exc.point = int(np.argmin(count))
        raise exc
    for _, c, v in blocks:
        held = zero_mask[c]
        per = held.sum(axis=1)
        for z in np.unique(per[per > 1]):
            t = np.flatnonzero(per == z)
            # each block's zero columns, in ascending column number
            u = np.argsort(np.where(held[t], c[t], vals.size), axis=1)[:, :z]
            t = t[:, None]
            v[t, :, u] = np.linalg.qr(v[t, :, u].transpose(0, 2, 1))[0].transpose(0, 2, 1)
    return zero_mask


def _check_finite(entries, starts=(0,)) -> None:
    """Refuse matrices with a non-finite entry, before any check or solve
    reads one: entries are the stacked lists of the matrices that start at
    starts.  The error's point is the first matrix that holds one."""
    rows, cols, values = entries
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        point = np.searchsorted(starts, rows[bad], side="right") - 1
        first, p = bad[np.argmin(point)], int(point.min())
        exc = SpectralError(f"non-finite entry {values[first]} at ({rows[first] - starts[p]}, "
                            f"{cols[first] - starts[p]}): the eigensolve needs finite entries")
        exc.point = p
        raise exc


def _checked_partner(entries, dims, starts=(0,)) -> np.ndarray:
    """P, the swap vec(|m><n|) <-> vec(|n><m|), of the generators of the
    given dimensions whose stacked lists entries start at starts, once
    they pass the checks that refuse a generator before any solve, in this
    order: finite entries (_check_finite); a trace row |vec(1)^dag L| of
    at most 1e-12 |L|_F, as is_trace_preserving tests it; and max
    |L[Pr, Pc] - conj L[r, c]| over the listed entries (an unlisted entry
    is 0) within the same bound, without which _block_eig would mirror
    the conjugate sectors wrongly.  The error's point is the first
    generator that fails."""
    _check_finite(entries, starts)
    rows, cols, values = entries
    trace, bound = _trace_norms(entries, dims)
    partner, worst = _partner(dims), np.zeros(len(dims))
    if values.size:
        # the position of each entry's mirror (Pr, Pc), -1 where it is not listed
        at = _listed(partner.size, cols, rows, partner[cols], partner[rows])
        np.maximum.at(worst, np.searchsorted(starts, rows, side="right") - 1,
                      np.abs(np.where(at >= 0, values[at], 0) - values.conj()))
    for gap, what, why in ((trace, "trace row |vec(1)^dag L|", ""),
                           (worst, "|P conj(L) P - L|", " (L does not preserve Hermiticity)")):
        bad = np.flatnonzero(~(gap <= bound))
        if bad.size:
            p = int(bad[0])
            exc = SpectralError(f"not a Liouvillian: {what} = {gap[p]:.2e} exceeds "
                                f"1e-12 |L|_F = {bound[p]:.2e}{why}")
            exc.point = p
            raise exc
    return partner


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
# A Liouvillian family's grid is assembled as that block-diagonal matrix
# in one pass (superop._assemble_grid) and its lists go straight to
# _grid_eigensystems; liouvillian_eigensystems stacks the lists of
# generators made one by one (_stack_entries).  Either way one
# whole-array check of the trace rows and one of P conj(L) P = L refuse
# a bad point by its index.

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
    "grids"); each result is bit for bit that of its generator alone, and
    no generators give ().  An exception raised for generator k carries
    point = k."""
    entries, _ = _stack_entries([liou.entries for liou in lious],
                                [liou.dim ** 2 for liou in lious])
    factors = [liou.factors for liou in lious]
    return _grid_eigensystems(entries, [liou.dim for liou in lious],
                              None if None in factors else factors, zero_tol)


def _grid_eigensystems(entries, dims, factors, zero_tol: float) -> tuple:
    """liouvillian_eigensystems of the generators of the given dimensions
    whose stacked lists are entries, as _stack_entries or _assemble_grid
    stacks them, with their (H_eff, Gamma) factors; () for no generators."""
    if not dims:
        return ()
    sizes = np.square(dims)
    starts = np.cumsum(sizes) - sizes
    n = int(sizes.sum())
    partner = _checked_partner(entries, dims, starts)
    try:
        vals, blocks = _block_eig(n, entries, partner=partner, factors=factors)
    except SpectralError as exc:
        exc.point = int(np.searchsorted(starts, exc.index, side="right") - 1)
        raise
    vals, blocks, _, _ = _cluster_sort(n, entries, vals, blocks, starts)
    zero_mask = _zero_sector(vals, blocks, zero_tol, starts)
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
    n, partner = liou.dim ** 2, _checked_partner(liou.entries, [liou.dim])
    # left vector i is paired with eigenvalue i:
    # lvecs[:, i]^dag L = vals[i] lvecs[:, i]^dag
    vals, blocks, lblocks = _block_eig(n, liou.entries, left=True, partner=partner)
    vals, blocks, labels, order = _cluster_sort(n, liou.entries, vals, blocks)
    _unit_columns(lblocks)
    lvecs = _scatter(_permute(lblocks, order))
    sizes = np.bincount(labels)
    vecs = _scatter(blocks)
    zero_mask = _zero_sector(vals, blocks, zero_tol)
    zero = np.flatnonzero(zero_mask)
    # the rank of the zero columns before, the steady state from them after
    # their QR
    svals = np.linalg.svd(vecs[:, zero], compute_uv=False)
    zero_rank = int(np.sum(svals > 1e-8 * svals[0]))
    j, rows, v = _columns(blocks, zero)
    vecs[rows, zero[j]] = v
    q = vecs[:, zero]

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

    # deterministic representatives.  An isolated real mode comes from the
    # real geev of a self-conjugate sector, so its eigenmatrix is Hermitian
    # bit for bit and only its sign is free: the real part of its largest
    # entry, or the imaginary part where that is larger, is made positive.
    # Every other column, a real singleton of a partner sector's pair too
    # (made real by the cluster rule), takes the canonical phase.
    herm = ~zero_mask & (sizes[labels] == 1) & (vals.imag == 0)
    cols = vecs[:, herm]
    herm[herm] = (cols == cols[partner].conj()).all(axis=0)
    cols = vecs[:, herm]
    piv = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
    ref = np.where(np.abs(piv.real) >= np.abs(piv.imag), piv.real, piv.imag)
    vecs[:, herm] = np.where(ref < 0, -cols, cols)
    vecs[:, ~herm] = _canonical_phase(vecs[:, ~herm])

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

    return Spectrum(eigenvalues=vals, blocks=vecs, zero_mask=zero_mask, space=liou.space,
                    left_vectors=left, defect_flags=flags,
                    steady_state=Operator(liou.space, ss), zero_sector_rank=zero_rank)


# ---------------------------------------------------------------------------
# effective-Hamiltonian spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NhhSpectrum(Eigensystem):
    """Eigensystem of an effective non-Hermitian Hamiltonian, in its
    excitation blocks.

    near_defective is set when the eigenvector matrix is ill-conditioned
    (eigenvalues have merged).  The induced no-jump eigenvalues
    -i(h_l - h_m^*) reproduce the spectrum of the no-jump generator as a
    multiset, with eigenmatrices |phi_l><phi_m|.
    """

    near_defective: bool

    def induced_eigenvalues(self) -> np.ndarray:
        """No-jump eigenvalues -i(h_l - h_m^*), flat index l*D + m."""
        h = self.eigenvalues
        return ((-1j * h)[:, None] + (1j * h.conj())[None, :]).reshape(-1)

    def induced_eigenmatrix(self, l: int, m: int) -> np.ndarray:
        """Unit-norm eigenmatrix |phi_l><phi_m| of the no-jump generator."""
        return np.outer(self.vectors[:, l], self.vectors[:, m].conj())


def nhh_eigensystems(mats) -> tuple:
    """nhh_eigensystem of each matrix, all solved as one (see "grids");
    each result is bit for bit that of its matrix alone.  An exception
    raised for matrix k carries point = k.  Matrices of one shape are
    listed as one stack; () for no matrices."""
    if not len(mats):
        return ()
    sizes = [np.shape(mat)[0] for mat in mats]
    if len({np.shape(mat) for mat in mats}) == 1:
        entries, starts = _dense_entries(np.asarray(mats)), np.arange(len(mats)) * sizes[0]
    else:
        entries, starts = _stack_entries(_each_point(_dense_entries, mats), sizes)
    n = starts[-1] + sizes[-1]
    _check_finite(entries, starts)
    vals, blocks = _block_eig(n, entries)
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
    return NhhSpectrum(es.eigenvalues, es.blocks, es.zero_mask, bool(cond > NHH_DEFECT_COND))


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
    n = spectrum.size
    vals = spectrum.eigenvalues
    vecs = spectrum.vectors
    mats = spectrum.right_mats
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
    traces = np.array([abs(np.trace(mats[i])) for i in range(n)])
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
        target = vectorize(mats[i].conj().T)
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
        phi = nhh.vectors
        worst4 = 1.0
        for i in range(n):
            ovl = np.abs(phi.conj().T @ mats[i] @ phi).max()
            worst4 = min(worst4, float(ovl))
        checks.append(LemmaCheck("commuting-jumps", worst4 >= 1 - 1e-8,
                                 f"min best overlap with |phi_l><phi_m| = {worst4:.12f}"))
    else:
        checks.append(LemmaCheck("commuting-jumps", True,
                                 "not applicable (jump operators do not commute with H_eff)"))

    # L5: zero sector diagonalizable
    zi = np.flatnonzero(spectrum.zero_mask)
    mult = len(zi)
    resid5 = max(float(np.linalg.norm(mat @ vecs[:, i])) for i in zi)
    ok5 = spectrum.zero_sector_rank == mult and resid5 <= 1e-8 * scale
    checks.append(LemmaCheck("zero-sector-diagonalizable", ok5,
                             f"multiplicity {mult}, rank {spectrum.zero_sector_rank}, "
                             f"max |L rho| = {resid5:.2e}"))

    # T1 guard: steady-state branches never coalesce
    ok_t1 = not spectrum.defect_flags[zi].any()
    checks.append(LemmaCheck("no-steady-state-ep", ok_t1,
                             "zero-eigenvalue branches carry no defect flag"))

    return LemmaReport(tuple(checks))
