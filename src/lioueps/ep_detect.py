"""Parameter sweeps, eigenvalue-branch continuation, and EP localization.

An exceptional point is detected where two eigenvalue branches coalesce
together with their eigenvectors.  The machinery here is agnostic to
what produced the eigensystem: Liouvillian eigenmatrices are compared
with the Hilbert-Schmidt product (their vectorized form), effective
Hamiltonian eigenvectors with the plain inner product.

The search finds roots of the pair discriminant Delta = (lambda_i -
lambda_j)^2, which is analytic through an order-2 EP and vanishes there
linearly (quadratically at a tangential coalescence).  Parabolas through
Delta on a coarse sweep give the candidate cells, Muller's iteration
refines each, and the first whose eigenvectors coalesce is accepted (a
crossing of diagonalizable branches has a root but no coalescence).
There (M - lambda_EP) is factored once: one SVD and one ||M||_2 give the
eigenmatrix, the Jordan chain, its residual and the first kernel
dimension of the order estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import JordanOrderError, NoEPBracketedError
from .ops_core import HilbertSpace, Operator
from .spectral import Eigensystem, Spectrum, _as_blocks, _canonical_phase, _components
from .superop import SuperOp

DEFAULT_RANK_TOL = 1e-8
DEFAULT_PARAM_TOL = 1e-8
MAX_ORDER = 8
# Muller's iteration converges superlinearly at an order-2 root but only
# linearly on the pair discriminant of a higher-order EP
MAX_REFINE = 60


@dataclass(frozen=True)
class SpectrumFamily:
    """A parametric eigenproblem: param value -> eigensystem and raw matrix.

    space is the Hilbert space a Liouvillian acts on, so that generalized
    eigenvectors devectorize to operators; it is None for an effective
    Hamiltonian (or any plain matrix) family.
    """

    param_name: str
    eigensystem: Callable[[float], Eigensystem]
    matrix: Callable[[float], np.ndarray]
    space: HilbertSpace | None = None


@dataclass(frozen=True)
class SweepResult:
    """Branch-continued spectra over a parameter grid.

    systems[k] is the eigensystem at grid[k] with its columns in branch
    order, and eigenvalues[k, i] and zero_mask[k, i] stack its values and
    zero mask: branch i at grid[k].  Branch identity is carried from one
    grid point to the next by greedy maximal-overlap assignment: a
    permutation at every step (an injection where the EP refinement
    tracks only a pair), taken in whole-array rounds that provably make
    the greedy rule's choices (_greedy_assignment).  matching_quality[k] is the worst
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


def support_overlaps(vectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, |<v_i|v_j>|) for the column pairs i < j that share support.

    vectors is an Eigensystem, read one stored sector block at a time, or
    a dense array, read as one block.  Columns of different blocks have
    disjoint supports.  Inside a block the columns fall into the
    connected components of the bipartite support graph: entry r joins
    column c wherever v[r, c] != 0.  Two columns of different components
    have disjoint supports, so every term of their inner product is an
    exact zero, and the pair is left out.  Each component of b >= 2
    columns takes one b x b gram, symmetrised.  The pairs come in
    row-major order.
    """
    blocks = vectors.blocks if isinstance(vectors, Eigensystem) else _as_blocks(vectors)
    parts = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
    for rows, cols, vecs in blocks:
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


def overlap_matrix(spec) -> np.ndarray:
    """|<v_i|v_j>| over the vectors of an Eigensystem or a Spectrum; symmetric, unit diagonal.

    The off-diagonal entries are those of support_overlaps, and exactly 0
    for every pair it leaves out.
    """
    vectors = spec.right_vectors() if isinstance(spec, Spectrum) else spec
    i, j, ovl = support_overlaps(vectors)
    out = np.eye(len(spec.eigenvalues) if isinstance(spec, Spectrum) else spec.size)
    out[i, j] = out[j, i] = ovl
    return out


def _greedy_assignment(prev_vecs: np.ndarray, cur_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy maximal-overlap matching of current branches to previous ones.

    Returns (perm, overlaps): column perm[i] of cur_vecs continues
    branch i, with assigned overlap overlaps[i].  prev_vecs has no more
    columns than cur_vecs, so perm is an injection: a permutation when
    both are square, the pair's two columns for an n x 2 reference.

    The rule takes the largest overlap left (the first in row-major order
    among equal ones) and strikes out its row and column.  An entry that is
    the first maximum of its row and of its column goes before anything
    else there (what precedes it is smaller, the rest no larger), and
    taking it early changes no other choice (locally dominant edges;
    Preis, STACS 1999).  Each round takes all such entries at once.
    """
    ovl = np.abs(prev_vecs.conj().T @ cur_vecs)
    perm = np.full(ovl.shape[0], -1, dtype=int)
    rows, cols = np.arange(ovl.shape[0]), np.arange(ovl.shape[1])
    work = ovl
    while rows.size:
        best = work.argmax(axis=1)
        i = np.flatnonzero(work.argmax(axis=0)[best] == np.arange(rows.size))
        perm[rows[i]] = cols[best[i]]
        keep_r, keep_c = np.ones(rows.size, dtype=bool), np.ones(cols.size, dtype=bool)
        keep_r[i] = keep_c[best[i]] = False
        rows, cols, work = rows[keep_r], cols[keep_c], work[np.ix_(keep_r, keep_c)]
    return perm, ovl[np.arange(perm.size), perm]


def sweep(family: SpectrumFamily, grid) -> SweepResult:
    """Evaluate the family on a grid and continue branches across it.

    Each point is put in branch order against the point before it; a
    ValueError is raised when the eigensystem size changes on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("grid must be strictly monotone")

    def evaluate(k):
        try:
            return family.eigensystem(grid[k])
        except Exception as exc:
            exc.args = (f"{exc} (at grid index {k}, {family.param_name}={grid[k]!r})",)
            raise

    systems = [evaluate(0)]
    quality = np.ones(grid.size - 1)
    breaks: list[tuple[int, int]] = []
    for k in range(1, grid.size):
        cur = evaluate(k)
        if cur.vectors.shape != systems[0].vectors.shape:
            raise ValueError(
                f"eigensystem size changed from {systems[0].size} to {cur.size} at grid "
                f"index {k} ({family.param_name}={grid[k]!r}): branches cannot be continued")
        perm, q = _greedy_assignment(systems[-1].vectors, cur.vectors)
        systems.append(Eigensystem(cur.values[perm], cur.vectors[:, perm], cur.zero_mask[perm]))
        quality[k - 1] = q.min()
        breaks += [(k - 1, int(i)) for i in np.flatnonzero(q < 0.5)]

    return SweepResult(family.param_name, grid, tuple(systems),
                       np.array([s.values for s in systems]),
                       np.array([s.zero_mask for s in systems]), quality, tuple(breaks))


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


def _pair_track(family: SpectrumFamily, g: float, ref_vecs: np.ndarray):
    """Eigensystem at g with the reference pair tracked by overlap.

    Returns (pair eigenvalues, pair vectors, the whole eigensystem).
    """
    sys_g = family.eigensystem(g)
    perm, _ = _greedy_assignment(ref_vecs, sys_g.vectors)
    return sys_g.values[perm], sys_g.vectors[:, perm], sys_g


def _factor(mat: np.ndarray, lambda_ep: complex, rank_tol: float):
    """(M - lambda_ep), its full SVD u, s, vh and ||M||_2.  Raises
    JordanOrderError unless s[-1] alone is below rank_tol * ||M||_2."""
    shifted = mat - lambda_ep * np.eye(mat.shape[0])
    u, s, vh = np.linalg.svd(shifted)
    norm = np.linalg.norm(mat, 2)
    deficiency = int(np.sum(s < rank_tol * norm))
    if deficiency != 1:
        raise JordanOrderError(
            f"EP order mismatch: rank deficiency {deficiency} at lambda={lambda_ep}")
    return shifted, u, s, vh, norm


def _chain(shifted, u, s, vh, rho1) -> tuple[np.ndarray, complex]:
    """Unit x2 orthogonal to v1 = rho1 / |rho1|, and A, with (M - lambda) x2 = A v1."""
    v1 = _unit(rho1)
    # minimal-norm least-squares solve through the SVD without its kernel
    x2 = vh[:-1].conj().T @ ((u.conj().T @ v1)[:-1] / s[:-1])
    x2 -= (v1.conj() @ x2) * v1
    x2 /= np.linalg.norm(x2)
    return x2, complex(v1.conj() @ (shifted @ x2))


def _kernel_dims(shifted: np.ndarray, s1: np.ndarray, scale: float,
                 rank_tol: float) -> tuple[int, list[int]]:
    """estimate_ep_order's (order, dims), given the singular values s1 of the shifted matrix."""
    dims = [int(np.sum(s1 < rank_tol * scale))]
    power = shifted
    while len(dims) < MAX_ORDER and dims[-1] < shifted.shape[0]:
        power = power @ shifted
        s = np.linalg.svd(power, compute_uv=False)
        dims.append(int(np.sum(s < rank_tol * scale ** (len(dims) + 1))))
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
    if isinstance(liou, SuperOp):
        return Operator(liou.space, vec.reshape(liou.dim, liou.dim))
    return vec


def ep_eigenmatrix(liou, lambda_ep: complex, rank_tol: float = DEFAULT_RANK_TOL):
    """Numerically unique eigenmatrix at a coalesced eigenvalue.

    The kernel vector of (L - lambda_EP), phase-canonicalized (largest
    entry real positive).  Raises JordanOrderError unless the shifted
    operator has rank deficiency exactly one; singular values below
    rank_tol times the largest singular value of the unshifted operator
    count as zero (sigma_max of the shifted matrix can be arbitrarily
    small, the unshifted entries set the rate scale).
    """
    vh = _factor(_array(liou), lambda_ep, rank_tol)[3]
    return _as_output(liou, _canonical_phase(vh[-1].conj()))


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
    shifted, u, s, vh, _ = _factor(_array(liou), lambda_ep, rank_tol)
    v1 = _canonical_phase(vh[-1].conj()) if rho1 is None else rho1
    x2, a = _chain(shifted, u, s, vh, v1)
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
    mat = _array(mat)
    shifted = mat - lambda_ep * np.eye(mat.shape[0])
    return _kernel_dims(shifted, np.linalg.svd(shifted, compute_uv=False),
                        np.linalg.norm(mat, 2) + abs(lambda_ep), rank_tol)


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
    (Delta would be ~1e308).  Delta is held for three
    grid points at a time, never for the whole grid.
    """
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
        vals, vecs, sys_new = _pair_track(family, g_new, vecs)
        values = sys_new.values
        g, delta = g[1:] + [g_new], delta[1:] + [(vals[0] - vals[1]) ** 2]
    return g[-1], vals, vecs, values


def locate_ep(family: SpectrumFamily, bracket, branch_pair=None,
              param_tol: float = DEFAULT_PARAM_TOL, coarse_points: int = 33,
              rank_tol: float = DEFAULT_RANK_TOL) -> EPReport:
    """Localize an exceptional point of a branch pair inside a bracket.

    The pair is either given (indices into the branch order at the
    bracket start; a ValueError names the branch count when an index is
    out of range) or every non-steady pair is searched.  Candidate cells
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
        bi, bj = np.nonzero(np.triu(~(steady[:, None] | steady[None, :]), 1))
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
    shifted, u, s, vh, norm = _factor(mat, lambda_ep, rank_tol)
    v1 = _canonical_phase(vh[-1].conj())
    v2, a_coef = _chain(shifted, u, s, vh, v1)
    order, _dims = _kernel_dims(shifted, s, norm + abs(lambda_ep), rank_tol)

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
