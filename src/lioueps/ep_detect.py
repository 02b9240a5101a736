"""Parameter sweeps, eigenvalue-branch continuation, and EP localization.

An exceptional point is detected where two eigenvalue branches coalesce
together with their eigenvectors.  The machinery here is agnostic to
what produced the eigensystem: Liouvillian eigenmatrices are compared
with the Hilbert-Schmidt product (their vectorized form), effective
Hamiltonian eigenvectors with the plain inner product.

A sweep asks the family for its whole grid in one call, and branches
are continued from point to point on the stored sector blocks, one group
of blocks that share rows at a time, without a dense vector array.  Two
branches that never share a block have disjoint supports, so the EP
search scans only pairs that do.

The search finds roots of the pair discriminant Delta = (lambda_i -
lambda_j)^2, which is analytic through an order-2 EP and vanishes there
linearly (quadratically at a tangential coalescence).  Parabolas through
Delta on a coarse sweep, all cells at once, give the candidate cells,
Muller's iteration refines each, and the first whose eigenvectors
coalesce is accepted (a crossing of diagonalizable branches has a root
but no coalescence).  There M - lambda_EP is factored once, by sectors
(sectors._sector_svds): one stacked SVD per sector size, and one of the
unshifted blocks for ||M||_2, give the eigenmatrix, the Jordan chain,
its residual and the first kernel dimension of the order estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import JordanOrderError, NoEPBracketedError
from .ops_core import DEFAULT_PARAM_TOL, DEFAULT_RANK_TOL, HilbertSpace, Operator
from .sectors import _sector_svds
from .spectral import Eigensystem, _canonical_phase, _components, _permute
from .superop import SuperOp

MAX_ORDER = 8
# Muller's iteration converges superlinearly at an order-2 root but only
# linearly on the pair discriminant of a higher-order EP
MAX_REFINE = 60
# entries (grid points x pairs) of one slab of the candidate scan's Delta
SCAN_BATCH_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SpectrumFamily:
    """A parametric eigenproblem: param values -> eigensystems, param value -> raw matrix.

    eigensystem takes a 1-D array of values and returns one Eigensystem
    per value, so that a caller hands it a whole grid at once (a single
    point is a one-element array).  An exception it raises for values[k]
    may carry point = k, which sweep reads to name the grid index.  space
    is the Hilbert space a Liouvillian acts on, so that generalized
    eigenvectors devectorize to operators; it is None for an effective
    Hamiltonian (or any plain matrix) family.
    """

    param_name: str
    eigensystem: Callable[[np.ndarray], Sequence[Eigensystem]]
    matrix: Callable[[float], np.ndarray]
    space: HilbertSpace | None = None


@dataclass(frozen=True)
class SweepResult:
    """Branch-continued spectra over a parameter grid.

    systems[k] is the eigensystem at grid[k] with its columns in branch
    order, and eigenvalues[k, i] and zero_mask[k, i] stack its values and
    zero mask: branch i at grid[k].  Branch identity is carried from one
    grid point to the next by greedy maximal-overlap assignment, a
    permutation at every step, read one group of sector blocks at a time
    (_track); the systems keep their sector blocks, renumbered, and no
    dense vector array is formed.  matching_quality[k] is the worst
    assigned overlap of step k -> k+1; steps whose best overlap for some
    branch fell below 0.5 are recorded as continuation breaks rather
    than silently fixed.
    """

    param_name: str
    grid: np.ndarray
    systems: tuple[Eigensystem, ...]
    eigenvalues: np.ndarray
    zero_mask: np.ndarray
    matching_quality: np.ndarray
    continuation_breaks: tuple[tuple[int, int], ...]


def support_overlaps(system: Eigensystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, |<v_i|v_j>|) for the vector pairs i < j that share support.

    The vectors are read one stored sector block at a time: the sectors of
    liouvillian_eigensystem, the excitation blocks of an NhhSpectrum, the
    one dense block of a Spectrum.  Columns of different blocks have
    disjoint supports.  Inside a block the columns fall into the
    connected components of the bipartite support graph: entry r joins
    column c wherever v[r, c] != 0.  Two columns of different components
    have disjoint supports, so every term of their inner product is an
    exact zero, and the pair is left out.  Each component of b >= 2
    columns takes one b x b gram, symmetrised.  The pairs come in
    row-major order.
    """
    parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for rows, cols, vecs in system.blocks:
        k, m, b = vecs.shape
        if b < 2:
            continue
        # node t (m + b) + r is row r of block t, node t (m + b) + m + c its column c
        t, r, c = np.nonzero(vecs)
        node = np.arange(k * (m + b))
        labels = _components(node.size, t * (m + b) + r, t * (m + b) + m + c)
        # only components of two or more columns hold a pair
        pairs = np.bincount(labels, node % (m + b) >= m)[labels] >= 2
        nodes = node[pairs][np.argsort(labels[pairs], kind="stable")]
        for comp in np.split(nodes, np.flatnonzero(np.diff(labels[nodes])) + 1):
            local = comp % (m + b)
            idx = local[local >= m] - m
            if idx.size < 2:
                continue
            block = comp[0] // (m + b)
            # the gram of the columns in ascending order, as a dense array has them
            idx = idx[np.argsort(cols[block, idx])]
            sub = vecs[block][np.ix_(local[local < m], idx)]
            g = np.abs(sub.conj().T @ sub)
            iu, ju = np.triu_indices(idx.size, 1)
            parts.append((cols[block, idx[iu]], cols[block, idx[ju]], 0.5 * (g + g.T)[iu, ju]))
    i, j, ovl = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((j, i))
    return i[order], j[order], ovl[order]


def overlap_matrix(system: Eigensystem) -> np.ndarray:
    """|<v_i|v_j>| over the vectors of an Eigensystem; symmetric, unit diagonal.

    The off-diagonal entries are those of support_overlaps, and exactly 0
    for every pair it leaves out.
    """
    i, j, ovl = support_overlaps(system)
    out = np.eye(system.size)
    out[i, j] = out[j, i] = ovl
    return out


def _greedy(ovl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The greedy rule's picks of positive overlap on each matrix of a
    stack ovl (k, r, c), r <= c: perm[t, i] is the column that row i of
    matrix t took, -1 where none above 0 was left for it; and tied[t],
    whether another order of matrix t's rows could change its picks.

    The rule takes the largest overlap left (the first in row-major order
    among equal ones) and strikes out its row and column.  Overlaps are
    compared rounded to 12 decimals, so that overlaps equal up to rounding
    tie: a conjugate pair of eigenmatrices has exactly equal overlaps with
    a Hermitian one, as where a pair leaves the real axis at an EP, and
    the row order, not the last bit, decides which branch continues
    where.  An entry that is the first maximum of its row and of its
    column goes before anything else there (what precedes it is smaller,
    the rest no larger), and taking it early changes no other choice
    (locally dominant edges; Preis, STACS 1999).  Each round takes all
    such entries at once, in every matrix of the stack; a struck row or
    column reads -1.  A row's first maximum does not depend on the row
    order, so a round does only through a column whose largest positive
    overlap left sits in two or more rows and is the first maximum of one
    of them.  A matrix leaves the stack at its first round that takes
    nothing.
    """
    k, r, _ = ovl.shape
    perm, tied = np.full((k, r), -1), np.zeros(k, dtype=bool)
    work, at, rows = np.round(ovl, 12), np.arange(k), np.arange(r)
    while at.size:
        top = work.max(axis=1)
        best = work.argmax(axis=2)
        stack = np.arange(at.size)[:, None]
        shared = ((work == top[:, None]).sum(axis=1) > 1) & (top > 0)
        on_top = work[stack, rows, best] == top[stack, best]
        tied[at] |= (on_top & shared[stack, best]).any(axis=1)
        take = (work.argmax(axis=1)[stack, best] == rows) & (work[stack, rows, best] > 0)
        t, i = np.nonzero(take)
        j = best[t, i]
        perm[at[t], i] = j
        work[t, i, :] = -1.0
        work[t, :, j] = -1.0
        # a matrix whose rows all took a column is done as well
        busy = take.any(axis=1) & (perm[at] < 0).any(axis=1)
        work, at = work[busy], at[busy]
    return perm, tied


def _pair_rest(perm: np.ndarray, c: int) -> np.ndarray:
    """perm with its rows of -1 given the columns 0..c-1 that no row took,
    in ascending order: what the greedy rule does once every overlap left
    is 0."""
    free = perm < 0
    if free.any():
        taken = np.zeros(c, dtype=bool)
        taken[perm[~free]] = True
        perm[free] = np.flatnonzero(~taken)[:free.sum()]
    return perm


def _greedy_assignment(prev_vecs: np.ndarray, cur_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximal-overlap matching of current branches to previous ones.

    Returns (perm, overlaps): column perm[i] of cur_vecs continues
    branch i, with assigned overlap overlaps[i].  prev_vecs has no more
    columns than cur_vecs, so perm is an injection: a permutation when
    both are square, the pair's two columns for an n x 2 reference.
    """
    ovl = np.abs(prev_vecs.conj().T @ cur_vecs)
    perm = _pair_rest(_greedy(ovl[None])[0][0], ovl.shape[1])
    return perm, ovl[np.arange(perm.size), perm]


def _track(systems) -> tuple[list, np.ndarray, tuple]:
    """Branch order over a grid: perms[k][i] is the column of systems[k]
    that continues branch i, with each step's worst assigned overlap and
    its continuation breaks.

    Step k is _greedy_assignment of the vectors of point k - 1, in branch
    order, to those of point k.  Their overlap matrix is 0 between blocks
    that share no row, so it is read one group of blocks at a time: the
    blocks of points k - 1 and k joined by shared rows.  Where the two
    points have the same sectors a group is one block of each, and the
    groups of one block shape take one matmul for the whole grid; where
    they differ (g = 0 on the grid) the blocks of a group are merged.
    Picks in different groups never meet, so the rule runs in each group
    alone until no positive overlap is left there; the rows left then
    take the columns left in ascending order, as on the dense matrix.  The
    rows' branch order is known only after step k - 1, and decides only
    between equal positive overlaps in one column: a group with such a tie
    is run again once that order is known, the tied groups of one step
    and shape as one stack.
    """
    n, points = systems[0].size, len(systems)
    m = sum(r.size for r, _, _ in systems[0].blocks)
    # the grid's blocks by shape, on rows p m + r and columns p n + c
    shapes = {}
    for p, system in enumerate(systems):
        for r, c, v in system.blocks:
            shapes.setdefault(v.shape[1:], []).append((p * m + r, p * n + c, v))
    stacks = [tuple(np.concatenate(x) for x in zip(*parts)) for parts in shapes.values()]
    first = np.cumsum([0] + [len(r) for r, _, _ in stacks])
    nb = first[-1]
    row_block = np.empty(points * m, dtype=np.intp)
    for f, (r, _, _) in zip(first, stacks):
        row_block[r] = f + np.arange(len(r))[:, None]
    # block bp of point k - 1 and block bc of point k share a row
    bp, bc = np.divmod(np.unique(row_block[:-m] * nb + row_block[m:]), nb)
    stack = np.searchsorted(first, np.arange(nb), side="right") - 1
    alone = ((np.bincount(bp, minlength=nb)[bp] == 1) & (np.bincount(bc, minlength=nb)[bc] == 1)
             & (stack[bp] == stack[bc]))
    pieces = []
    for s, (_, c, v) in enumerate(stacks):
        on = alone & (stack[bp] == s)
        tp, tc = bp[on] - first[s], bc[on] - first[s]
        prev = np.conjugate(v[tp])
        pieces.append((c[tp], c[tc], np.abs(np.matmul(prev.transpose(0, 2, 1), v[tc]))))
    if not alone.all():
        label = _components(2 * nb, bp[~alone], nb + bc[~alone])
        nodes = np.unique(np.r_[bp[~alone], nb + bc[~alone]])
        nodes = nodes[np.argsort(label[nodes], kind="stable")]
        for group in np.split(nodes, np.flatnonzero(np.diff(label[nodes])) + 1):
            pieces.append(_merged_overlaps(stacks, first, stack, group[group < nb],
                                           group[group >= nb] - nb))

    # match[c]: the column of the next point that column c (of the grid) took
    match, value, ties = np.full(points * n, -1), np.zeros(points * n), {}
    for pr, pc, ovl in pieces:
        order = np.argsort(pc, axis=1)
        pc = np.take_along_axis(pc, order, 1) % n
        ovl = ovl[np.arange(len(ovl))[:, None, None], np.arange(ovl.shape[1])[:, None], order[:, None]]
        pick, tied = _greedy(ovl)
        t, i = np.nonzero(pick >= 0)
        match[pr[t, i]], value[pr[t, i]] = pc[t, pick[t, i]], ovl[t, i, pick[t, i]]
        for t in np.flatnonzero(tied):
            step = ties.setdefault(pr[t, 0] // n + 1, {})
            step.setdefault(ovl.shape[1:], []).append((pr[t], pc[t], ovl[t]))

    perms = np.empty((points, n), dtype=np.intp)
    perms[0] = np.arange(n)
    for k in range(1, points):
        # step k's tied groups, one stack per shape, run again with their
        # rows in the branch order of point k - 1
        rank = np.empty(n, dtype=np.intp)
        rank[perms[k - 1]] = np.arange(n)
        for group in ties.get(k, {}).values():
            pr, pc, ovl = (np.stack(x) for x in zip(*group))
            order = np.argsort(rank[pr % n], axis=1)
            pr, ovl = np.take_along_axis(pr, order, 1), ovl[np.arange(len(ovl))[:, None], order]
            pick = _greedy(ovl)[0]
            took, pick = pick >= 0, np.maximum(pick, 0)
            match[pr] = np.where(took, np.take_along_axis(pc, pick, 1), -1)
            value[pr] = np.where(took, np.take_along_axis(ovl, pick[:, :, None], 2)[:, :, 0], 0.0)
        perms[k] = _pair_rest(match[(k - 1) * n + perms[k - 1]], n)
    # the assigned overlap of branch i at step k
    assigned = value[np.arange(points - 1)[:, None] * n + perms[:-1]]
    return perms, assigned.min(axis=1), tuple(map(tuple, np.argwhere(assigned < 0.5).tolist()))


def _merged_overlaps(stacks, first, stack, prev, cur):
    """(prev columns, cur columns, |prev^H cur|) of the blocks prev of one
    point and cur of the next, each side merged into one dense block on the
    rows they cover (the same rows of the two points, in ascending order),
    as a stack of one."""
    def merged(blocks):
        parts = [(stacks[s][0][t], stacks[s][1][t], stacks[s][2][t])
                 for s, t in zip(stack[blocks], blocks - first[stack[blocks]])]
        rows = np.unique(np.concatenate([r for r, _, _ in parts]))
        cols = np.concatenate([c for _, c, _ in parts])
        out = np.zeros((rows.size, cols.size), dtype=complex)
        at = np.cumsum([0] + [c.size for _, c, _ in parts])
        for (r, _, v), a in zip(parts, at):
            out[np.searchsorted(rows, r)[:, None], a + np.arange(v.shape[1])] = v
        return cols, out

    (pc, a), (cc, b) = merged(prev), merged(cur)
    return pc[None], cc[None], np.abs(a.conj().T @ b)[None]


def sweep(family: SpectrumFamily, grid) -> SweepResult:
    """Evaluate the family on a grid and continue branches across it.

    The family solves the whole grid in one call.  Each point is put in
    branch order against the point before it (_track); a ValueError is
    raised when the eigensystem size changes on the grid, and an error
    raised for one grid point names its index.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("grid must be strictly monotone")

    try:
        systems = family.eigensystem(grid)
    except Exception as exc:
        k = getattr(exc, "point", None)
        if k is not None:
            exc.args = (f"{exc} (at grid index {k}, {family.param_name}={grid[k]!r})",)
        raise
    shape = [(s.size, sum(r.size for r, _, _ in s.blocks)) for s in systems]
    for k, (size, _) in enumerate(shape):
        if shape[k] != shape[0]:
            raise ValueError(
                f"eigensystem size changed from {systems[0].size} to {size} at grid "
                f"index {k} ({family.param_name}={grid[k]!r}): branches cannot be continued")
    perms, quality, breaks = _track(systems)
    systems = tuple(Eigensystem(s.eigenvalues[p], tuple(_permute(s.blocks, p)), s.zero_mask[p])
                    for s, p in zip(systems, perms))
    return SweepResult(family.param_name, grid, systems,
                       np.array([s.eigenvalues for s in systems]),
                       np.array([s.zero_mask for s in systems]), quality, breaks)


# ---------------------------------------------------------------------------
# EP localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EPReport:
    """Localized exceptional point with Jordan-chain data.

    generalized_eigenmatrix is the Hilbert-Schmidt-normalized solution
    of (L - lambda_EP) rho2 = A rho1 with its rho1 component removed
    (None for Hamiltonian EPs, where generalized_vector holds the plain
    generalized eigenvector instead).
    """

    param_name: str
    param_value: float
    branch_pair: tuple[int, int]
    lambda_ep: complex
    eigenvalue_gap: float
    overlap_at_ep: float
    order_estimate: int
    jordan_coefficient: complex
    chain_residual: float
    generalized_vector: np.ndarray
    generalized_eigenmatrix: Operator | None

    def to_dict(self) -> dict:
        return {
            "param_name": self.param_name,
            "param_value": self.param_value,
            "branch_pair": list(self.branch_pair),
            "lambda_ep": [self.lambda_ep.real, self.lambda_ep.imag],
            "eigenvalue_gap": self.eigenvalue_gap,
            "overlap_at_ep": self.overlap_at_ep,
            "order_estimate": self.order_estimate,
            "jordan_coefficient": [self.jordan_coefficient.real, self.jordan_coefficient.imag],
            "chain_residual": self.chain_residual,
        }


def _factor(mat: np.ndarray, lambda_ep: complex, rank_tol: float):
    """_sector_svds, each stack's mask of singular values below rank_tol
    ||M||_2, and the canonical kernel vector.  Raises JordanOrderError
    unless one singular value alone, over every sector, is below."""
    stacks, norm = _sector_svds(mat, lambda_ep)
    below = [s < rank_tol * norm for _, _, _, s, _ in stacks]
    if (deficiency := sum(int(b.sum()) for b in below)) != 1:
        raise JordanOrderError(
            f"EP order mismatch: rank deficiency {deficiency} at lambda={lambda_ep}")
    (idx, _, _, _, vh), b = next((st, b) for st, b in zip(stacks, below) if b.any())
    kernel = np.zeros(mat.shape[0], dtype=complex)
    kernel[idx[b.any(axis=1)][0]] = vh[b][0].conj()
    return stacks, norm, below, _canonical_phase(kernel)


def _chain(stacks, below, rho1) -> tuple[np.ndarray, complex]:
    """Unit x2 orthogonal to v1 = rho1 / |rho1|, and A, with (M - lambda) x2
    = A v1: the minimal-norm least-squares solve through the SVD of each
    sector that v1 touches, without the kernel value (below)."""
    v1 = _unit(rho1)
    x2, touched = np.zeros_like(v1), []
    for (idx, shifted, u, s, vh), low in zip(stacks, below):
        on = np.flatnonzero((v1[idx] != 0).any(axis=1))
        c = (u[on].conj().transpose(0, 2, 1) @ v1[idx[on], None])[..., 0]
        c = np.divide(c, s[on], out=np.zeros_like(c), where=~low[on])
        x2[idx[on]] = (vh[on].conj().transpose(0, 2, 1) @ c[..., None])[..., 0]
        touched.append((idx[on], shifted[on]))
    x2 -= (v1.conj() @ x2) * v1
    x2 /= np.linalg.norm(x2)
    return x2, complex(sum(np.vdot(v1[i], b @ x2[i, None]) for i, b in touched))


def _kernel_dims(stacks, scale: float, rank_tol: float) -> tuple[int, list[int]]:
    """estimate_ep_order's (order, dims) from _sector_svds, each power of
    M - lambda taken and its kernel counted one stack at a time."""
    n = sum(idx.size for idx, *_ in stacks)
    dims = [sum(int(np.sum(s < rank_tol * scale)) for _, _, _, s, _ in stacks)]
    powers = [shifted for _, shifted, *_ in stacks]
    while len(dims) < MAX_ORDER and dims[-1] < n:
        powers = [p @ shifted for p, (_, shifted, *_) in zip(powers, stacks)]
        tol = rank_tol * scale ** (len(dims) + 1)
        dims.append(sum(int(np.sum(np.linalg.svd(p, compute_uv=False) < tol)) for p in powers))
        if dims[-1] == dims[-2]:
            return len(dims) - 1, dims
    return len(dims), dims


def _array(x) -> np.ndarray:
    """The complex array behind a SuperOp, an Operator or an array."""
    return np.asarray(x.matrix if isinstance(x, (SuperOp, Operator)) else x, dtype=complex)


def _unit(rho) -> np.ndarray:
    v = _array(rho).reshape(-1)
    return v / np.linalg.norm(v)


def _as_output(liou, vec: np.ndarray):
    return Operator(liou.space, vec.reshape(liou.dim, -1)) if isinstance(liou, SuperOp) else vec


def ep_eigenmatrix(liou, lambda_ep: complex, rank_tol: float = DEFAULT_RANK_TOL):
    """Numerically unique eigenmatrix at a coalesced eigenvalue.

    The kernel vector of (L - lambda_EP), phase-canonicalized (largest
    entry real positive).  Raises JordanOrderError unless the shifted
    operator has rank deficiency exactly one; singular values below
    rank_tol times the largest singular value of the unshifted operator
    count as zero (sigma_max of the shifted matrix can be arbitrarily
    small, the unshifted entries set the rate scale).
    """
    return _as_output(liou, _factor(_array(liou), lambda_ep, rank_tol)[3])


def jordan_chain(liou, lambda_ep: complex, rho1=None,
                 rank_tol: float = DEFAULT_RANK_TOL):
    """Generalized eigenvector at an order-2 coalescence.

    Solves (L - lambda) x2 = A x1 in the least-squares sense; x1 is the
    given eigenmatrix or, when omitted, the canonical kernel vector of
    ep_eigenmatrix.  The x1 component is projected out and x2
    normalized, so A absorbs the scale.  Accepts a SuperOp (returns an
    Operator) or a plain square matrix (returns a vector).  Raises
    JordanOrderError unless the rank deficiency is exactly one.
    """
    stacks, _, below, kernel = _factor(_array(liou), lambda_ep, rank_tol)
    x2, a = _chain(stacks, below, kernel if rho1 is None else rho1)
    return _as_output(liou, x2), a


def chain_residual(liou, lambda_ep: complex, rho1, rho2, a: complex) -> float:
    """Hilbert-Schmidt norm of (L - lambda) rho2 - A rho1."""
    v2 = _array(rho2).reshape(-1)
    return float(np.linalg.norm(_array(liou) @ v2 - lambda_ep * v2 - a * _unit(rho1)))


def estimate_ep_order(mat: np.ndarray, lambda_ep: complex,
                      rank_tol: float = DEFAULT_RANK_TOL) -> tuple[int, list[int]]:
    """Order of the eigenvalue from kernel growth of shifted powers.

    Returns (order, kernel_dims) where kernel_dims[k-1] is the numerical
    kernel dimension of (M - lambda)^k, for k up to MAX_ORDER; the order
    is where the growth saturates.  Each chain step grows the kernel by
    exactly one.  The power-k threshold is rank_tol (||M||_2 + |lambda|)^k:
    near an EP the entire Jordan block of (M - lambda)^k is numerically
    zero, so thresholds relative to the power's own largest singular
    value would see nothing.
    """
    stacks, norm = _sector_svds(_array(mat), lambda_ep)
    return _kernel_dims(stacks, norm + abs(lambda_ep), rank_tol)


def _muller(x, y):
    """Coefficients (a, b) of the parabola y[2] + b (s - x[2]) + a (s - x[2])^2
    through the points (x[k], y[k]): Muller's step, written with divided
    differences; broadcasts over trailing axes of y."""
    h1, h2 = x[1] - x[0], x[2] - x[1]
    d1, d2 = (y[1] - y[0]) / h1, (y[2] - y[1]) / h2
    a = (d2 - d1) / (h1 + h2)
    return a, a * h2 + d2


def _parabola_root(x2, y2, a, b):
    """Root nearest x2 of the parabola y2 + b (s - x2) + a (s - x2)^2.

    A parabola without a finite root gives inf or nan.
    """
    disc = np.sqrt(b * b - 4.0 * a * y2)
    den = np.where(np.abs(b + disc) >= np.abs(b - disc), b + disc, b - disc)
    return x2 - 2.0 * y2 / den


def _same_block(systems) -> np.ndarray:
    """Whether branches i and j sit in one stored block at some grid point.

    Two branches that never do have disjoint supports at every point: their
    overlap is exactly 0, so they cannot coalesce.  A block is labelled by
    its smallest branch, and each distinct labelling of the grid is read
    once.
    """
    labels = np.empty((len(systems), systems[0].size), dtype=np.intp)
    for label, system in zip(labels, systems):
        for _, cols, _ in system.blocks:
            label[cols] = cols.min(axis=1, keepdims=True)
    same = np.zeros((labels.shape[1],) * 2, dtype=bool)
    for label in np.unique(labels, axis=0):
        same |= label[:, None] == label[None, :]
    return same


def _candidates(res: SweepResult, bi: np.ndarray, bj: np.ndarray) -> list[tuple[int, int, int]]:
    """Sorted (i, j, k) for the pairs (bi[p], bj[p]) and grid cells k holding a root of Delta.

    Cell k spans half a grid step either side of grid point k (the end
    cells reach the bracket ends).  It holds a root when the parabola
    through Delta at k - 1, k, k + 1 has its root nearest k there, within
    a step of the real axis, or when Delta vanishes at k; a pair with
    Delta = 0 at all three points is degenerate, not coalescing.

    The parabola is Delta_k + b t + a t^2 in the step coordinate t, and a
    cell accepts only |t| <= sqrt(2).  Its computed root, -2 Delta_k / den
    with |den| <= |b| + sqrt(|b|^2 + 4 |a Delta_k|), then has |Delta_k| <=
    2 sqrt(2) |b| + 2 |a|, so pairs with |Delta_k| > 4 (|b| + |a|) skip
    the square root and the list is the same, provided b * b does not
    overflow: with |b| above ~1e154 the unfiltered root came out of
    inf / inf arithmetic as -0 and counted as inside, while the filter
    skips the pair.  Eigenvalue differences never come near that scale
    (Delta would be ~1e308).  All cells are tested at once, for a slab
    of pairs whose Delta holds SCAN_BATCH_ENTRIES entries at most.
    """
    last = res.grid.size - 2
    # the cells of grid points 1..last in the step coordinate
    lo, hi = -0.5 - 0.5 * (np.arange(last) == 0), 0.5 + 0.5 * (np.arange(last) == last - 1)
    step = max(SCAN_BATCH_ENTRIES // res.grid.size, 1)
    found = [(np.empty(0, dtype=np.intp),) * 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        for at in range(0, bi.size, step):
            i, j = bi[at:at + step], bj[at:at + step]
            delta = (res.eigenvalues[:, i] - res.eigenvalues[:, j]) ** 2
            prev, cur, nxt = delta[:-2], delta[1:-1], delta[2:]
            a, b = _muller((-1.0, 1.0, 0.0), (prev, nxt, cur))
            k, p = np.nonzero(~(np.abs(cur) > 4.0 * (np.abs(b) + np.abs(a))))
            c = cur[k, p]
            t = _parabola_root(0.0, c, a[k, p], b[k, p])
            inside = (t.real >= lo[k]) & (t.real <= hi[k]) & (np.abs(t.imag) <= 1.0)
            hit = (inside | (c == 0)) & ((prev[k, p] != 0) | (nxt[k, p] != 0) | (c != 0))
            found.append((i[p[hit]], j[p[hit]], k[hit] + 1))
    i, j, k = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((k, j, i))
    return list(zip(i[order].tolist(), j[order].tolist(), k[order].tolist()))


def _refine(family: SpectrumFamily, res: SweepResult, i: int, j: int, k: int,
            param_tol: float):
    """Muller's iteration on Delta of pair (i, j), started in cell k.

    Steps to the real part of the root of the parabola through the last
    three (g, Delta) points, clamped to grid points k - 1 and k + 1, until
    Delta = 0, the step lands within param_tol of one of those points, or
    MAX_REFINE eigensystems.  Returns g, the pair's eigenvalues and
    vectors, and all eigenvalues at the last evaluated point.
    """
    idx = [k - 1, k + 1, k]
    g = list(res.grid[idx])
    delta = list((res.eigenvalues[idx, i] - res.eigenvalues[idx, j]) ** 2)
    vals, values = res.eigenvalues[k, [i, j]], res.eigenvalues[k]
    vecs = res.systems[k].vectors[:, [i, j]]
    for _ in range(MAX_REFINE):
        if delta[-1] == 0:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            g_new = float(np.clip(_parabola_root(g[2], delta[2], *_muller(g, delta)).real,
                                  res.grid[k - 1], res.grid[k + 1]))
        if not np.min(np.abs(g_new - np.asarray(g))) > param_tol:
            break
        # the pair at g_new, tracked by overlap
        system = family.eigensystem(np.array([g_new]))[0]
        perm, values = _greedy_assignment(vecs, system.vectors)[0], system.eigenvalues
        vals, vecs = values[perm], system.vectors[:, perm]
        g, delta = g[1:] + [g_new], delta[1:] + [(vals[0] - vals[1]) ** 2]
    return g[-1], vals, vecs, values


def locate_ep(family: SpectrumFamily, bracket, branch_pair=None,
              param_tol: float = DEFAULT_PARAM_TOL, coarse_points: int = 33,
              rank_tol: float = DEFAULT_RANK_TOL) -> EPReport:
    """Localize an exceptional point of a branch pair inside a bracket.

    The pair is either given (indices into the branch order at the
    bracket start; a ValueError names the branch count when an index is
    out of range) or every non-steady pair that shares a sector block at
    some grid point is searched (_same_block).  Candidate cells
    are refined in pair order (row-major), then by parameter, and the
    first whose eigenvectors coalesce (overlap >= 1 - 1e-6) is reported.
    Zero-eigenvalue branches of a trace-preserving generator are rejected
    up front: the steady-state sector is always diagonalizable, so it
    cannot host an EP.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    if coarse_points < 3:
        raise ValueError("coarse_points must be at least 3")
    res = sweep(family, np.linspace(lo, hi, coarse_points))

    steady = res.zero_mask.any(axis=0)
    if branch_pair is None:
        bi, bj = np.nonzero(np.triu(_same_block(res.systems) & ~(steady[:, None] | steady[None, :]), 1))
    elif not 0 <= min(branch_pair) <= max(branch_pair) < steady.size:
        raise ValueError(f"branch_pair {tuple(branch_pair)} out of range: the family "
                         f"has {steady.size} branches (indices 0..{steady.size - 1})")
    else:
        bi, bj = np.array([branch_pair[0]]), np.array([branch_pair[1]])
        if steady[bi[0]] or steady[bj[0]]:
            raise NoEPBracketedError(
                "no EP bracketed: the zero-eigenvalue sector is non-defective "
                "and cannot coalesce")

    candidates = _candidates(res, bi, bj)
    best = 0.0
    for i, j, k in candidates:
        g_star, vals_star, vecs_star, values = _refine(family, res, i, j, k, param_tol)
        overlap = float(np.abs(np.vdot(vecs_star[:, 0], vecs_star[:, 1])))
        if overlap >= 1 - 1e-6:
            break
        best = max(best, overlap)
    else:
        raise NoEPBracketedError(
            f"no EP bracketed: {len(candidates)} candidate cells, none coalesced "
            f"(best overlap {best:.8f})")

    gap = float(abs(vals_star[0] - vals_star[1]))
    # at a higher-order EP more than two branches merge; re-center the
    # eigenvalue on the whole coalescing cluster before Jordan analysis
    pair_mean = 0.5 * (vals_star[0] + vals_star[1])
    radius = max(20.0 * gap, 1e-9)
    cluster = values[np.abs(values - pair_mean) <= radius]
    lambda_ep = complex(cluster.mean())

    mat = _array(family.matrix(g_star))
    stacks, norm, below, v1 = _factor(mat, lambda_ep, rank_tol)
    v2, a_coef = _chain(stacks, below, v1)
    order, _dims = _kernel_dims(stacks, norm + abs(lambda_ep), rank_tol)

    return EPReport(
        param_name=family.param_name,
        param_value=float(g_star),
        branch_pair=(i, j),
        lambda_ep=lambda_ep,
        eigenvalue_gap=gap,
        overlap_at_ep=overlap,
        order_estimate=max(order, 2),
        jordan_coefficient=a_coef,
        chain_residual=chain_residual(mat, lambda_ep, v1, v2, a_coef),
        generalized_vector=v2,
        generalized_eigenmatrix=(None if family.space is None else
                                 Operator(family.space, v2.reshape(family.space.dim, -1))),
    )
