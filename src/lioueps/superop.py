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
"""

from __future__ import annotations

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
    scatter.  Both are read-only.
    """

    def __init__(self, space: HilbertSpace, matrix=None, *, entries=None):
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
    the lists gives the matrix back bit for bit."""
    mat = np.ascontiguousarray(mat)
    bits = mat.view(np.uint64).reshape(*mat.shape, -1)
    rows, cols = np.nonzero(bits.any(axis=2))
    return rows, cols, mat[rows, cols]


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


def _generator(k: np.ndarray, jumps=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinate lists of rho -> -i(K rho - rho K^dag) + sum_g g rho g^dag:
    the one assembly behind every builder (module docstring).

    Entry (a D + b, c D + e) of kron(x, y) is x[a, c] y[b, e].  The lists
    run over the entries where some term's two factors are both nonzero,
    and each value sums all terms there in the order of the kron sum
    kron(-iK, 1) + kron(1, iK^*) + sum_g kron(g, g^*), exact zeros
    included, so it is that sum's entry bit for bit."""
    d = k.shape[0]
    n, eye = d * d, np.eye(d)
    terms = [(-1j * k, eye), (eye, 1j * k.conj())] + [(g, g.conj()) for g in jumps]
    keys = []
    for x, y in terms:
        (a, c), (b, e) = np.nonzero(x), np.nonzero(y)
        keys.append((((a * d)[:, None] + b) * n + (c * d)[:, None] + e).ravel())
    keys = np.sort(np.concatenate(keys))
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    (a, b), (c, e) = np.divmod(rows, d), np.divmod(cols, d)
    vals = terms[0][0][a, c] * terms[0][1][b, e]
    for x, y in terms[1:]:
        vals += x[a, c] * y[b, e]
    return rows, cols, vals


def dissipator_superop(gamma_op: Operator) -> SuperOp:
    """Matrix of the unit-normalized dissipator D[Gamma] (K = -(i/2) Gamma^dag Gamma).

    D[Gamma] rho = Gamma rho Gamma^dag - 1/2 {Gamma^dag Gamma, rho};
    the rate, if any, is expected to be folded into Gamma already.
    """
    g = gamma_op.matrix
    return SuperOp(gamma_op.space, entries=_generator(-0.5j * (g.conj().T @ g), (g,)))


def jump_superop(gamma_op: Operator) -> SuperOp:
    """Matrix of the jump term rho -> Gamma rho Gamma^dag (= Gamma kron Gamma^*, K = 0)."""
    g = gamma_op.matrix
    return SuperOp(gamma_op.space, entries=_generator(np.zeros_like(g), (g,)))


def effective_hamiltonian(model: LindbladModel) -> Operator:
    """H_eff = H - (i/2) sum_mu Gamma_mu^dag Gamma_mu."""
    m = model.H.matrix.astype(complex).copy()
    for g in model.folded_jump_matrices():
        m -= 0.5j * (g.conj().T @ g)
    return Operator(model.space, m)


def assemble_liouvillian(model: LindbladModel) -> SuperOp:
    """Full generator L = L' + sum_mu Gamma_mu kron Gamma_mu^* (rates folded in).

    The result annihilates the trace row: vec(1)^dag L = 0.
    """
    heff = effective_hamiltonian(model).matrix
    return SuperOp(model.space, entries=_generator(heff, model.folded_jump_matrices()))


def assemble_liouvillian_no_jumps(model: LindbladModel) -> SuperOp:
    """No-jump generator L' = -i(H_eff . - . H_eff^dag); not trace
    preserving as soon as any jump operator is nonzero."""
    return SuperOp(model.space, entries=_generator(effective_hamiltonian(model).matrix))


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
    rows, cols, vals = s.entries
    # the rows of vec(1) are a D + a
    diag = rows % (s.dim + 1) == 0
    out = np.zeros(s.dim ** 2, dtype=complex)
    np.add.at(out, cols[diag], vals[diag])
    return out


def is_trace_preserving(s: SuperOp) -> bool:
    """Whether the trace row vanishes to within 1e-12 ||L||_F."""
    return bool(np.linalg.norm(trace_row(s)) <= 1e-12 * np.linalg.norm(s.entries[2]))


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
