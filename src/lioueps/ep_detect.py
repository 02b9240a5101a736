"""Parameter sweeps, eigenvalue-branch continuation, and EP localization.

An exceptional point is detected where two eigenvalue branches coalesce
together with their eigenvectors.  The machinery here is agnostic to
what produced the eigensystem: Liouvillian eigenmatrices are compared
with the Hilbert-Schmidt product (their vectorized form), effective
Hamiltonian eigenvectors with the plain inner product.

Bisection runs on the sign of Re(gap^2) - Im(gap^2), which flips where a
pair transitions between real-split and complex-split.  When the gap
never changes character but the pair overlap climbs above 0.9 inside
the bracket, a golden-section refinement of the minimal gap is used
instead.  Exactly-at-EP arithmetic is avoided: the report is computed
at the final bracket midpoint (parameter slop <= param_tol), where the
eigensolver is still trustworthy.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import JordanOrderError, NoEPBracketedError
from .ops_core import HilbertSpace, Operator
from .spectral import NhhSpectrum, Spectrum, _canonical_phase
from .superop import SuperOp

DEFAULT_RANK_TOL = 1e-8
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Eigensystem:
    """Eigenvalues plus unit eigenvectors in a fixed inner-product space."""

    values: np.ndarray
    vectors: np.ndarray
    zero_mask: np.ndarray

    @property
    def size(self) -> int:
        return len(self.values)


def eigensystem_of(spec) -> Eigensystem:
    """Adapt a Spectrum or NhhSpectrum to the sweep interface."""
    if isinstance(spec, Spectrum):
        zero = np.zeros(len(spec.eigenvalues), dtype=bool)
        zero[list(spec.zero_indices)] = True
        return Eigensystem(spec.eigenvalues.copy(), spec.right_vectors(), zero)
    if isinstance(spec, NhhSpectrum):
        return Eigensystem(spec.eigenvalues.copy(), spec.eigenvectors.copy(),
                           np.zeros(len(spec.eigenvalues), dtype=bool))
    raise TypeError(f"cannot adapt {type(spec).__name__} to an Eigensystem")


@dataclass(frozen=True)
class SpectrumFamily:
    """A parametric eigenproblem: param value -> eigensystem and raw matrix.

    is_superop tells the EP machinery whether generalized eigenvectors
    devectorize to operators (Liouvillian case) and whether the
    zero-eigenvalue guard applies.
    """

    param_name: str
    eigensystem: Callable[[float], Eigensystem]
    matrix: Callable[[float], np.ndarray]
    is_superop: bool
    space: HilbertSpace | None = None


@dataclass(frozen=True)
class SweepResult:
    """Branch-continued spectra over a parameter grid.

    eigenvalues[k, i] is branch i at grid[k]; branch identity is carried
    from one grid point to the next by greedy maximal-overlap assignment
    (a permutation at every step).  matching_quality[k] is the worst
    assigned overlap of step k -> k+1; steps whose best overlap for some
    branch fell below 0.5 are recorded as continuation breaks rather
    than silently fixed.
    """

    param_name: str
    grid: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    zero_mask: np.ndarray
    matching_quality: np.ndarray
    continuation_breaks: tuple[tuple[int, int], ...]

    @property
    def n_branches(self) -> int:
        return self.eigenvalues.shape[1]

    def branch(self, i: int) -> np.ndarray:
        return self.eigenvalues[:, i]


def overlap_matrix(spec) -> np.ndarray:
    """|<v_i|v_j>| for all eigenvector pairs; symmetric with unit diagonal."""
    vecs = spec.vectors if isinstance(spec, Eigensystem) else eigensystem_of(spec).vectors
    g = np.abs(vecs.conj().T @ vecs)
    return 0.5 * (g + g.T)


def _greedy_assignment(prev_vecs: np.ndarray, cur_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Permutation matching current branches to previous ones.

    Returns (perm, overlaps): column perm[i] of cur_vecs continues
    branch i, with assigned overlap overlaps[i].
    """
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


def sweep(family: SpectrumFamily, grid, n_threads: int = 1) -> SweepResult:
    """Evaluate the family on a grid and continue branches across it."""
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

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            systems = list(pool.map(evaluate, range(grid.size)))
    else:
        systems = [evaluate(k) for k in range(grid.size)]

    n = systems[0].size
    m = grid.size
    dim = systems[0].vectors.shape[0]
    eigenvalues = np.zeros((m, n), dtype=complex)
    vectors = np.zeros((m, dim, n), dtype=complex)
    zero_mask = np.zeros((m, n), dtype=bool)
    quality = np.ones(m - 1)
    breaks: list[tuple[int, int]] = []

    eigenvalues[0] = systems[0].values
    vectors[0] = systems[0].vectors
    zero_mask[0] = systems[0].zero_mask
    for k in range(1, m):
        perm, q = _greedy_assignment(vectors[k - 1], systems[k].vectors)
        eigenvalues[k] = systems[k].values[perm]
        vectors[k] = systems[k].vectors[:, perm]
        zero_mask[k] = systems[k].zero_mask[perm]
        quality[k - 1] = q.min()
        for i in np.flatnonzero(q < 0.5):
            breaks.append((k - 1, int(i)))

    return SweepResult(family.param_name, grid, eigenvalues, vectors, zero_mask,
                       quality, tuple(breaks))


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


def _gap_objective(vals: np.ndarray) -> float:
    gap2 = (vals[0] - vals[1]) ** 2
    return float(gap2.real - gap2.imag)


def _shifted_svd(liou, lambda_ep: complex, rank_tol: float):
    """Full SVD of (M - lambda_ep) with the rank-deficiency-one check.

    Returns (shifted matrix, u, s, vh, tol); singular values below tol
    count as zero.  Raises JordanOrderError for any other deficiency.
    """
    mat = liou.matrix if isinstance(liou, SuperOp) else np.asarray(liou, dtype=complex)
    shifted = mat - lambda_ep * np.eye(mat.shape[0])
    u, s, vh = np.linalg.svd(shifted)
    tol = rank_tol * np.linalg.norm(mat, 2)
    deficiency = int(np.sum(s < tol))
    if deficiency != 1:
        raise JordanOrderError(
            f"EP order mismatch: rank deficiency {deficiency} at lambda={lambda_ep}")
    return shifted, u, s, vh, tol


def ep_eigenmatrix(liou, lambda_ep: complex, rank_tol: float = DEFAULT_RANK_TOL):
    """Numerically unique eigenmatrix at a coalesced eigenvalue.

    The kernel vector of (L - lambda_EP), phase-canonicalized (largest
    entry real positive).  Raises JordanOrderError unless the shifted
    operator has rank deficiency exactly one; singular values below
    rank_tol times the largest singular value of the unshifted operator
    count as zero (sigma_max of the shifted matrix can be arbitrarily
    small, the unshifted entries set the rate scale).
    """
    *_, vh, _ = _shifted_svd(liou, lambda_ep, rank_tol)
    v1 = _canonical_phase(vh[-1].conj())
    if isinstance(liou, SuperOp):
        return Operator(liou.space, v1.reshape(liou.dim, liou.dim))
    return v1


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
    shifted, u, s, vh, tol = _shifted_svd(liou, lambda_ep, rank_tol)
    v1 = _canonical_phase(vh[-1].conj()) if rho1 is None else _as_vector(rho1)
    v1 = v1 / np.linalg.norm(v1)
    # minimal-norm least-squares solve through the truncated SVD
    keep = s >= tol
    coeffs = (u.conj().T @ v1)[keep] / s[keep]
    x2 = vh[keep].conj().T @ coeffs
    x2 -= (v1.conj() @ x2) * v1
    x2 /= np.linalg.norm(x2)
    a = complex(v1.conj() @ (shifted @ x2))
    if isinstance(liou, SuperOp):
        return Operator(liou.space, x2.reshape(liou.dim, liou.dim)), a
    return x2, a


def _as_vector(rho) -> np.ndarray:
    if isinstance(rho, Operator):
        return rho.matrix.reshape(-1).copy()
    return np.asarray(rho, dtype=complex).reshape(-1)


def chain_residual(liou, lambda_ep: complex, rho1, rho2, a: complex) -> float:
    """Hilbert-Schmidt norm of (L - lambda) rho2 - A rho1."""
    mat = liou.matrix if isinstance(liou, SuperOp) else np.asarray(liou, dtype=complex)
    v1 = _as_vector(rho1)
    v1 = v1 / np.linalg.norm(v1)
    v2 = _as_vector(rho2)
    r = mat @ v2 - lambda_ep * v2 - a * v1
    return float(np.linalg.norm(r))


def estimate_ep_order(mat: np.ndarray, lambda_ep: complex,
                      rank_tol: float = DEFAULT_RANK_TOL,
                      max_order: int = 8) -> tuple[int, list[int]]:
    """Order of the eigenvalue from kernel growth of shifted powers.

    Returns (order, kernel_dims) where kernel_dims[k-1] is the numerical
    kernel dimension of (M - lambda)^k; the order is where the growth
    saturates.  Each chain step grows the kernel by exactly one.  The
    power-k threshold scales as the k-th power of the operator scale:
    near an EP the entire Jordan block of (M - lambda)^k is numerically
    zero, so thresholds relative to the power's own largest singular
    value would see nothing.
    """
    n = mat.shape[0]
    shifted = mat - lambda_ep * np.eye(n)
    scale = np.linalg.norm(mat, 2) + abs(lambda_ep)
    dims = []
    power = np.eye(n, dtype=complex)
    prev = 0
    order = 1
    for k in range(1, max_order + 1):
        power = power @ shifted
        s = np.linalg.svd(power, compute_uv=False)
        dim_k = int(np.sum(s < rank_tol * scale ** k))
        dims.append(dim_k)
        if k > 1 and dim_k == prev:
            order = k - 1
            break
        prev = dim_k
        order = k
        if dim_k >= n:
            break
    return order, dims


def locate_ep(family: SpectrumFamily, bracket, branch_pair=None,
              param_tol: float = 1e-8, coarse_points: int = 33,
              overlap_trigger: float = 0.9, rank_tol: float = DEFAULT_RANK_TOL,
              n_threads: int = 1) -> EPReport:
    """Localize an exceptional point of a branch pair inside a bracket.

    The pair is either given (indices into the branch order at the
    bracket start) or auto-selected as the non-steady pair with the
    smallest minimal gap over a coarse sweep.  Zero-eigenvalue branches
    of a trace-preserving generator are rejected up front: the
    steady-state sector is always diagonalizable, so it cannot host an
    EP.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ValueError("bracket must satisfy lo < hi")
    res = sweep(family, np.linspace(lo, hi, coarse_points), n_threads=n_threads)

    if branch_pair is None:
        best = None
        for i in range(res.n_branches):
            if family.is_superop and res.zero_mask[:, i].any():
                continue
            for j in range(i + 1, res.n_branches):
                if family.is_superop and res.zero_mask[:, j].any():
                    continue
                gap = np.abs(res.eigenvalues[:, i] - res.eigenvalues[:, j]).min()
                if best is None or gap < best[0]:
                    best = (gap, i, j)
        if best is None:
            raise NoEPBracketedError("no candidate branch pair in bracket")
        branch_pair = (best[1], best[2])
    i, j = int(branch_pair[0]), int(branch_pair[1])

    if family.is_superop and (res.zero_mask[:, i].any() or res.zero_mask[:, j].any()):
        raise NoEPBracketedError(
            "no EP bracketed: the zero-eigenvalue sector is non-defective "
            "and cannot coalesce")

    pair_vals = res.eigenvalues[:, [i, j]]
    pair_vecs = res.vectors[:, :, [i, j]]
    s_vals = np.array([_gap_objective(pair_vals[k]) for k in range(res.grid.size)])
    pair_ovl = np.array([
        float(np.abs(np.vdot(pair_vecs[k][:, 0], pair_vecs[k][:, 1])))
        for k in range(res.grid.size)])

    flips = np.flatnonzero(np.sign(s_vals[:-1]) * np.sign(s_vals[1:]) < 0)
    if flips.size > 0:
        k = int(flips[0])
        a, b = res.grid[k], res.grid[k + 1]
        sa = s_vals[k]
        ref = pair_vecs[k]
        while b - a > param_tol:
            mid = 0.5 * (a + b)
            vals_m, ref, _ = _pair_track(family, mid, ref)
            if np.sign(_gap_objective(vals_m)) == np.sign(sa):
                a = mid
            else:
                b = mid
        g_star = 0.5 * (a + b)
    elif pair_ovl.max() >= overlap_trigger:
        k = int(np.argmin(np.abs(pair_vals[:, 0] - pair_vals[:, 1])))
        a = res.grid[max(k - 1, 0)]
        b = res.grid[min(k + 1, res.grid.size - 1)]
        ref = pair_vecs[max(k - 1, 0)]

        def gap_at(g):
            nonlocal ref
            vals_g, ref, _ = _pair_track(family, g, ref)
            return abs(vals_g[0] - vals_g[1])

        x1 = b - GOLDEN * (b - a)
        x2 = a + GOLDEN * (b - a)
        f1, f2 = gap_at(x1), gap_at(x2)
        while b - a > param_tol:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - GOLDEN * (b - a)
                f1 = gap_at(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + GOLDEN * (b - a)
                f2 = gap_at(x2)
        g_star = 0.5 * (a + b)
    else:
        raise NoEPBracketedError(
            "no EP bracketed: gap never changes character and overlap stays "
            f"below {overlap_trigger}")

    vals_star, vecs_star, sys_star = _pair_track(family, g_star, ref)
    gap = float(abs(vals_star[0] - vals_star[1]))
    overlap = float(np.abs(np.vdot(vecs_star[:, 0], vecs_star[:, 1])))
    if overlap < 1 - 1e-6:
        raise NoEPBracketedError(
            f"bracketing converged at {family.param_name}={g_star!r} but the "
            f"eigenvectors did not coalesce (overlap {overlap:.8f})")
    # at a higher-order EP more than two branches merge; re-center the
    # eigenvalue on the whole coalescing cluster before Jordan analysis
    pair_mean = 0.5 * (vals_star[0] + vals_star[1])
    radius = max(20.0 * gap, 1e-9)
    cluster = sys_star.values[np.abs(sys_star.values - pair_mean) <= radius]
    lambda_ep = complex(cluster.mean())

    mat = family.matrix(g_star)
    operator = SuperOp(family.space, mat) if family.is_superop else mat
    rho1 = ep_eigenmatrix(operator, lambda_ep, rank_tol)
    rho2, a_coef = jordan_chain(operator, lambda_ep, rho1=rho1, rank_tol=rank_tol)
    resid = chain_residual(mat, lambda_ep, rho1, rho2, a_coef)
    order, _dims = estimate_ep_order(mat, lambda_ep, rank_tol)

    return EPReport(
        param_name=family.param_name,
        param_value=float(g_star),
        branch_pair=(i, j),
        lambda_ep=lambda_ep,
        eigenvalue_gap=gap,
        overlap_at_ep=overlap,
        order_estimate=max(order, 2),
        jordan_coefficient=a_coef,
        chain_residual=resid,
        generalized_vector=_as_vector(rho2),
        generalized_eigenmatrix=rho2 if isinstance(rho2, Operator) else None,
    )
