"""Vectorization and assembly of superoperator matrices.

Vectorization convention (fixed globally):
row-major stacking, vec(|m><n|) sits at flat index m*D + n, so that
vec(A B C) = (A kron C^T) vec(B).  Under this convention

    left_action(O)  = O kron 1          (O . )
    right_action(O) = 1 kron O^T        ( . O)

and the Hilbert-Schmidt product is the plain vector inner product,
<A|B> = vec(A)^dag vec(B).

Rate folding: a LindbladModel stores jump channels as (rate, operator)
pairs and every builder uses Gamma = sqrt(rate) * X, the one convention
that reproduces all the closed-form spectra of the bundled model
families (see models.py).  Every builder is one assembly:

    L = L' + sum_mu Gamma_mu kron Gamma_mu^*,  L' = -i(K kron 1 - 1 kron K^*)

with K = H_eff for L and for the no-jump generator L' (no jumps, so the
split holds bitwise), K = -(i/2) Gamma^dag Gamma for the dissipator
D[Gamma] and K = 0 for the jump term.  L is stored as coordinate lists
over the entries where some Kronecker term is nonzero, a few per row
for the bundled models against the D^2 of a dense row; the spectral
code reads the lists sector by sector, and the dense matrix is scattered
from them only for the callers that read it (dynamics, verify, the
Jordan analysis of an EP).

The assembly runs over a stack of points: K of shape (P, D, D) and the
jumps of shape (P, m, D, D) give the lists of the block-diagonal
diag(L_1, ..., L_P), each point's values summed in the order above, so
that a parameter grid (_assemble_grid) is one call whose every point
has the bits it has alone.  A single builder is the stack of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError
from .ops_core import HilbertSpace, Operator


@dataclass(frozen=True)
class LindbladModel:
    """Hermitian Hamiltonian plus jump channels (rate, operator).

    The single source of truth for building the full generator, its
    no-jump part, and the effective non-Hermitian Hamiltonian.
    """

    H: Operator
    jumps: tuple[tuple[float, Operator], ...] = ()

    def __post_init__(self):
        if not self.H.is_hermitian():
            raise HermiticityError("model Hamiltonian is not Hermitian")
        jumps = tuple((float(g), x) for g, x in self.jumps)
        for g, x in jumps:
            if g < 0:
                raise ValueError(f"jump rate must be >= 0, got {g}")
            if not x.space.compatible(self.H.space):
                raise ValueError("jump operator lives on a different space than H")
        object.__setattr__(self, "jumps", jumps)

    @property
    def space(self) -> HilbertSpace:
        return self.H.space

    @property
    def dim(self) -> int:
        return self.H.space.dim

    def folded_jump_matrices(self) -> list[np.ndarray]:
        """Effective jump operators Gamma = sqrt(rate) * X as raw arrays."""
        return [np.sqrt(g) * x.matrix for g, x in self.jumps]


class SuperOp:
    """A D^2 x D^2 matrix acting on vectorized operators.

    Made from a dense matrix, or from coordinate lists entries = (rows,
    cols, values) in row-major order, as the builders below make it.
    Every entry the lists leave out is +0.0.  Each form is derived from
    the other on first use and kept: the lists of a dense matrix cover
    every entry that is not +0.0, and the matrix of the lists is their
    scatter.  Both are read-only.  factors, the (H_eff, Gamma) stacks the
    lists were assembled from (_stacked), lets the spectral solve read L's
    units off H_eff (sectors._induced); None for any other matrix.
    """

    def __init__(self, space: HilbertSpace, matrix=None, *, entries=None, factors=None):
        d2 = space.dim ** 2
        if (matrix is None) == (entries is None):
            raise TypeError("SuperOp takes exactly one of matrix and entries")
        if matrix is not None:
            matrix = np.array(matrix, dtype=complex)
            if matrix.shape != (d2, d2):
                raise ValueError(f"superoperator shape {matrix.shape} does not match "
                                 f"D^2 = {d2}")
            matrix.flags.writeable = False
        else:
            entries = _read_only(entries)
        self.space, self._matrix, self._entries = space, matrix, entries
        self.factors = None if factors is None else _read_only(factors)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._entries is None:
            self._entries = _read_only(_dense_entries(self._matrix))
        return self._entries

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            d2 = self.space.dim ** 2
            rows, cols, vals = self._entries
            matrix = np.zeros((d2, d2), dtype=complex)
            matrix[rows, cols] = vals
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix


def _read_only(arrays) -> tuple[np.ndarray, ...]:
    arrays = tuple(np.asarray(x) for x in arrays)
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _dense_entries(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of every entry of a matrix whose bits are not
    +0.0, in row-major order: -0.0 is listed, so that scattering
    the lists gives the matrix back bit for bit.  A stack (P, D, D) gives
    the lists of the block-diagonal diag(mat[0], ..., mat[P - 1])."""
    mat = np.ascontiguousarray(mat)
    bits = mat.view(np.uint64).reshape(*mat.shape, -1)
    at = np.nonzero(bits.any(axis=-1))
    if mat.ndim == 2:
        return at[0], at[1], mat[at]
    return at[0] * mat.shape[1] + at[1], at[0] * mat.shape[1] + at[2], mat[at]


def vectorize(a) -> np.ndarray:
    """Row-major vectorization; accepts an Operator or a square array."""
    m = a.matrix if isinstance(a, Operator) else np.asarray(a, dtype=complex)
    return m.reshape(-1).copy()


def devectorize(v: np.ndarray, space: HilbertSpace | None = None):
    """Inverse of vectorize.

    Returns an Operator when a space is given, otherwise a bare array.
    Raises ValueError if the length is not a perfect square.
    """
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    m = v.reshape(d, d)
    if space is None:
        return m
    if space.dim != d:
        raise ValueError(f"space dimension {space.dim} does not match vector length {v.size}")
    return Operator(space, m)


def left_action(o: Operator) -> SuperOp:
    """Matrix of rho -> O rho."""
    eye = np.eye(o.space.dim)
    return SuperOp(o.space, np.kron(o.matrix, eye))


def right_action(o: Operator) -> SuperOp:
    """Matrix of rho -> rho O."""
    eye = np.eye(o.space.dim)
    return SuperOp(o.space, np.kron(eye, o.matrix.T))


def _generator(k: np.ndarray, jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate lists of rho -> -i(K rho - rho K^dag) + sum_g g rho g^dag
    at each of P points, as one block-diagonal matrix: the one assembly
    behind every builder (module docstring).

    k has shape (P, D, D) and jumps shape (P, m, D, D).  Point p owns
    indices p D^2 .. (p + 1) D^2 - 1, and entry (a D + b, c D + e) of its
    kron(x, y) is x[a, c] y[b, e].  The lists run over the entries where
    some term's two factors are both nonzero at that point, and each value
    sums all terms there in the order of the kron sum kron(-iK, 1) +
    kron(1, iK^*) + sum_g kron(g, g^*), exact zeros included, so it is
    that sum's entry bit for bit."""
    points, d = k.shape[:2]
    n, eye = d * d, np.broadcast_to(np.eye(d), k.shape)
    terms = [(-1j * k, eye), (eye, 1j * k.conj())]
    terms += [(jumps[:, t], jumps[:, t].conj()) for t in range(jumps.shape[1])]
    keys = []
    for x, y in terms:
        (p, a, c), (q, b, e) = np.nonzero(x), np.nonzero(y)
        # every nonzero of x with every nonzero of y at the same point
        per = np.bincount(q, minlength=points)
        i = np.repeat(np.arange(p.size), per[p])
        j = np.arange(i.size) - np.repeat(np.cumsum(per[p]) - per[p] - (np.cumsum(per) - per)[p],
                                          per[p])
        # keyed by the global row and the column within the point
        keys.append((p[i] * n + a[i] * d + b[j]) * n + c[i] * d + e[j])
    keys = np.sort(np.concatenate(keys))
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    p = rows // n
    (a, b), (c, e) = np.divmod(rows - p * n, d), np.divmod(cols, d)
    vals = terms[0][0][p, a, c] * terms[0][1][p, b, e]
    for x, y in terms[1:]:
        vals += x[p, a, c] * y[p, b, e]
    return rows, cols + p * n, vals


def dissipator_superop(gamma_op: Operator) -> SuperOp:
    """Matrix of the unit-normalized dissipator D[Gamma] (K = -(i/2) Gamma^dag Gamma).

    D[Gamma] rho = Gamma rho Gamma^dag - 1/2 {Gamma^dag Gamma, rho};
    the rate, if any, is expected to be folded into Gamma already.
    """
    g = gamma_op.matrix
    return SuperOp(gamma_op.space,
                   entries=_generator((-0.5j * (g.conj().T @ g))[None], g[None, None]))


def jump_superop(gamma_op: Operator) -> SuperOp:
    """Matrix of the jump term rho -> Gamma rho Gamma^dag (= Gamma kron Gamma^*, K = 0)."""
    g = gamma_op.matrix
    return SuperOp(gamma_op.space, entries=_generator(np.zeros_like(g)[None], g[None, None]))


def _stacked(models) -> tuple[np.ndarray, np.ndarray]:
    """(H_eff, Gamma) of models with one dimension D and one number m of
    channels, stacked point by point: shapes (P, D, D) and (P, m, D, D),
    each point's arrays bit for bit those of its model alone."""
    p, d, m = len(models), models[0].dim, len(models[0].jumps)
    rates = np.array([[g for g, _ in model.jumps] for model in models]).reshape(p, m)
    ops = np.array([[x.matrix for _, x in model.jumps] for model in models],
                   dtype=complex).reshape(p, m, d, d)
    gammas = np.sqrt(rates)[:, :, None, None] * ops
    heff = np.array([model.H.matrix for model in models], dtype=complex)
    for t in range(m):
        heff -= 0.5j * (gammas[:, t].conj().transpose(0, 2, 1) @ gammas[:, t])
    return heff, gammas


def effective_hamiltonian(model: LindbladModel) -> Operator:
    """H_eff = H - (i/2) sum_mu Gamma_mu^dag Gamma_mu."""
    return Operator(model.space, _stacked([model])[0][0])


def _effective_hamiltonians(models) -> list[np.ndarray]:
    """The H_eff matrix of each model, bit for bit effective_hamiltonian's:
    each run of consecutive models of one dimension and channel count
    takes one _stacked pass."""
    out = []
    for _, run in itertools.groupby(models, lambda model: (model.dim, len(model.jumps))):
        out.extend(_stacked(list(run))[0])
    return out


def assemble_liouvillian(model: LindbladModel) -> SuperOp:
    """Full generator L = L' + sum_mu Gamma_mu kron Gamma_mu^* (rates folded in).

    The result annihilates the trace row: vec(1)^dag L = 0.
    """
    factors = _stacked([model])
    return SuperOp(model.space, entries=_generator(*factors), factors=factors)


def assemble_liouvillian_no_jumps(model: LindbladModel) -> SuperOp:
    """No-jump generator L' = -i(H_eff . - . H_eff^dag); not trace
    preserving as soon as any jump operator is nonzero."""
    heff, gammas = _stacked([model])
    return SuperOp(model.space, entries=_generator(heff, gammas[:, :0]))


def _assemble_grid(models) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[int], list]:
    """Coordinate lists of diag(L_1, ..., L_P), the full generators of the
    models, the dimension D of each, and the (H_eff, Gamma) stacks of each
    run: point p owns the D^2 indices after those of the points before it,
    and its lists are assemble_liouvillian's bit for bit.  Each run of
    consecutive models of one dimension and channel count takes one
    _generator call; only a grid over a cutoff has more than one run."""
    parts, factors, start = [], [], 0
    for _, run in itertools.groupby(models, lambda model: (model.dim, len(model.jumps))):
        run = list(run)
        factors.append(_stacked(run))
        rows, cols, vals = _generator(*factors[-1])
        parts.append((rows + start, cols + start, vals) if start else (rows, cols, vals))
        start += len(run) * run[0].dim ** 2
    entries = parts[0] if len(parts) == 1 else tuple(np.concatenate(x) for x in zip(*parts))
    return entries, [model.dim for model in models], factors


def apply_liouvillian(model: LindbladModel, rho: Operator) -> Operator:
    """Apply the full generator directly in operator form.

    Same map as assemble_liouvillian, in O(D^2) storage and O(D^3) time
    per call, without building L at all.
    """
    if not rho.space.compatible(model.space):
        raise ValueError("state lives on a different space than the model")
    h = model.H.matrix
    r = rho.matrix
    out = -1j * (h @ r - r @ h)
    for g in model.folded_jump_matrices():
        gdg = g.conj().T @ g
        out += g @ r @ g.conj().T - 0.5 * (gdg @ r + r @ gdg)
    return Operator(model.space, out)


def trace_row(s: SuperOp) -> np.ndarray:
    """vec(1)^dag L, the row that must vanish for a trace-preserving generator."""
    return _trace_rows(s.entries, [s.dim])[0]


def _trace_rows(entries, dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trace rows of the generators, of the given dimensions, of the
    block-diagonal matrix with coordinate lists entries, side by side;
    the first index of each generator, and the generator of each entry."""
    rows, cols, vals = entries
    dims = np.asarray(dims)
    starts = np.cumsum(dims * dims) - dims * dims
    point = np.searchsorted(starts, rows, side="right") - 1
    # the rows of vec(1) are a D + a within each generator
    diag = (rows - starts[point]) % (dims[point] + 1) == 0
    out = np.zeros(np.sum(dims * dims), dtype=complex)
    np.add.at(out, cols[diag], vals[diag])
    return out, starts, point


def _group_norms(group: np.ndarray, mags: np.ndarray, count: int, factor: float = 1.0):
    """factor times the 2-norm of the magnitudes mags in each of count
    groups, as max |v| (factor ||v / max |v|||): no square overflows, and
    for factor < 1 no product either."""
    top = np.zeros(count)
    np.maximum.at(top, group, mags)
    scale = np.where(top > 0, top, 1.0)
    with np.errstate(over="ignore"):
        return top * (factor * np.sqrt(np.bincount(group, (mags / scale[group]) ** 2, count)))


def _trace_norms(entries, dims) -> tuple[np.ndarray, np.ndarray]:
    """|vec(1)^dag L| and 1e-12 |L|_F of each generator of _trace_rows: the
    two sides of the trace-preservation test."""
    row, starts, point = _trace_rows(entries, dims)
    owner = np.repeat(np.arange(starts.size), np.square(dims))
    return (_group_norms(owner, np.abs(row), starts.size),
            _group_norms(point, np.abs(entries[2]), starts.size, 1e-12))


def is_trace_preserving(s: SuperOp) -> bool:
    """Whether the trace row vanishes to within 1e-12 ||L||_F."""
    trace, bound = _trace_norms(s.entries, [s.dim])
    return bool(trace[0] <= bound[0])


def kraus_step(model: LindbladModel, rho: Operator, tau: float) -> Operator:
    """One step of the minimal two-operator Kraus map.

    rho -> M0 rho M0^dag + tau * Gamma rho Gamma^dag with
    M0 = 1 - i tau H_eff.  Agrees with the Euler step rho + tau L rho
    up to an exactly quadratic defect tau^2 H_eff rho H_eff^dag, so
    halving tau quarters the defect.

    Only defined for models with exactly one jump channel.
    """
    if len(model.jumps) != 1:
        raise ValueError("kraus_step requires a model with exactly one jump channel")
    if tau <= 0:
        raise ValueError("tau must be positive")
    g = model.folded_jump_matrices()[0]
    m0 = np.eye(model.dim) - 1j * tau * effective_hamiltonian(model).matrix
    r = rho.matrix
    out = m0 @ r @ m0.conj().T + tau * (g @ r @ g.conj().T)
    return Operator(model.space, out)
