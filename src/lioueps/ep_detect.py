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
eigensolver is still trustworthy.  There (M - lambda_EP) is factored
once: one SVD and one ||M||_2 give the eigenmatrix, the Jordan chain,
its residual and the first kernel dimension of the order estimate.
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
DEFAULT_PARAM_TOL = 1e-8
OVERLAP_TRIGGER = 0.9
MAX_ORDER = 8
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


def _gap_objective(vals: np.ndarray) -> np.ndarray:
    gap2 = (vals[..., 0] - vals[..., 1]) ** 2
    return gap2.real - gap2.imag


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


def locate_ep(family: SpectrumFamily, bracket, branch_pair=None,
              param_tol: float = DEFAULT_PARAM_TOL, coarse_points: int = 33,
              rank_tol: float = DEFAULT_RANK_TOL,
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
        # argmin keeps the first minimal gap in row-major (i < j) order
        n = res.n_branches
        gaps = np.full((n, n), np.inf)
        for vals in res.eigenvalues:
            np.minimum(gaps, np.abs(vals[:, None] - vals[None, :]), out=gaps)
        steady = res.zero_mask.any(axis=0) & family.is_superop
        candidate = np.triu(~(steady[:, None] | steady[None, :]), 1)
        if not candidate.any():
            raise NoEPBracketedError("no candidate branch pair in bracket")
        branch_pair = np.unravel_index(np.argmin(np.where(candidate, gaps, np.inf)), (n, n))
    i, j = int(branch_pair[0]), int(branch_pair[1])

    if family.is_superop and (res.zero_mask[:, i].any() or res.zero_mask[:, j].any()):
        raise NoEPBracketedError(
            "no EP bracketed: the zero-eigenvalue sector is non-defective "
            "and cannot coalesce")

    pair_vals = res.eigenvalues[:, [i, j]]
    pair_vecs = res.vectors[:, :, [i, j]]
    s_vals = _gap_objective(pair_vals)
    pair_ovl = np.abs(np.einsum("kd,kd->k", pair_vecs[:, :, 0].conj(), pair_vecs[:, :, 1]))

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
    elif pair_ovl.max() >= OVERLAP_TRIGGER:
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
            f"below {OVERLAP_TRIGGER}")

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
        generalized_eigenmatrix=(Operator(family.space, v2.reshape(family.space.dim, -1))
                                 if family.is_superop else None),
    )
