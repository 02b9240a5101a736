"""Hilbert spaces, dense complex operators, and Hilbert-Schmidt geometry.

Everything here is dense and immutable: an Operator wraps a read-only
D x D complex array together with the Hilbert space it acts on.
All functions are pure.

Qubit convention (fixed once, used everywhere): basis order (|g>, |e>),
sigma_- = |g><e| (upper triangular), sigma_z = 1 - 2 sigma_+ sigma_-
= diag(+1, -1), sigma_+- = (sigma_x +- i sigma_y)/2.  This set of
definitions makes {sigma_x, sigma_y, sigma_z} a left-handed triple,
[sigma_x, sigma_y] = -2i sigma_z; all dissipative spectra are invariant
under the sign of sigma_y, so nothing downstream depends on handedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, SpaceMismatchError

#: Relative tolerance used by default for Hermiticity checks.
DEFAULT_HERM_TOL = 1e-12
# The default tolerances of the spectral and EP analyses live here, beside
# DEFAULT_HERM_TOL, so that the CLI reads them without loading either module
# (spectral and ep_detect import them from here).
#: |lambda| up to which an eigenvalue of L counts as zero.
DEFAULT_ZERO_TOL = 1e-10
# At an exact EP the eigensolver splits the defective pair by O(sqrt(eps)),
# and |Tr(sigma rho)| of the returned unit vectors lands at the same scale
# (~1e-8): a much smaller threshold would never fire in double precision,
# while healthy pairs sit at O(0.1).
DEFAULT_DEFECT_TOL = 1e-6
#: Relative singular-value cut of the Jordan analysis at an EP.
DEFAULT_RANK_TOL = 1e-8
#: Parameter tolerance of the EP refinement.
DEFAULT_PARAM_TOL = 1e-8


@dataclass(frozen=True)
class HilbertSpace:
    """A tensor-product Hilbert space.

    dims stores the exact level count of each factor.  Flat basis
    indices run row-major over the factors.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid factor dimensions {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        """Total dimension D = product of the factor dimensions."""
        return math.prod(self.dims)

    def index_of(self, multi: tuple[int, ...]) -> int:
        """Flat basis index of a multi-index (row-major over factors)."""
        if len(multi) != len(self.dims):
            raise ValueError("multi-index rank mismatch")
        idx = 0
        for k, d in zip(multi, self.dims):
            if not 0 <= k < d:
                raise ValueError(f"multi-index {multi} out of range for dims {self.dims}")
            idx = idx * d + k
        return idx

    def multi_of(self, index: int) -> tuple[int, ...]:
        """Inverse of index_of."""
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} out of range")
        multi = []
        for d in reversed(self.dims):
            multi.append(index % d)
            index //= d
        return tuple(reversed(multi))

    def compatible(self, other: "HilbertSpace") -> bool:
        return self.dims == other.dims


def qubit_space() -> HilbertSpace:
    return HilbertSpace((2,))


def boson_space(levels: int) -> HilbertSpace:
    return HilbertSpace((levels,))


@dataclass(frozen=True)
class Operator:
    """Dense complex operator on a HilbertSpace.

    The matrix is copied and frozen at construction; entries must be
    finite.
    """

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {d}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    # -- small algebra helpers (same-space checked) ---------------------

    def _check_space(self, other: "Operator"):
        if not self.space.compatible(other.space):
            raise SpaceMismatchError(
                f"operators on incompatible spaces {self.space.dims} vs {other.space.dims}")

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def is_hermitian(self, tol: float = DEFAULT_HERM_TOL) -> bool:
        scale = np.abs(self.matrix).max()
        if scale == 0.0:
            return True
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol * scale

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)


@dataclass(frozen=True)
class HermitianDecomposition:
    """Spectral decomposition of a Hermitian operator.

    eigenvalues are real and sorted descending; eigenvectors holds the
    matching orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def build_qubit_ops() -> dict[str, Operator]:
    """Pauli and ladder operators in the (|g>, |e>) basis.

    sigma_- = |g><e|, sigma_+ = |e><g|, sigma_z = 1 - 2 sigma_+ sigma_-
    = diag(+1, -1), sigma_+- = (sigma_x +- i sigma_y)/2.
    """
    space = qubit_space()
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sp = sm.conj().T
    sx = sp + sm
    sy = -1j * (sp - sm)
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return {
        "sigma_x": Operator(space, sx),
        "sigma_y": Operator(space, sy),
        "sigma_z": Operator(space, sz),
        "sigma_plus": Operator(space, sp),
        "sigma_minus": Operator(space, sm),
        "identity": Operator(space, eye),
    }


def build_boson_ops(levels: int) -> dict[str, Operator]:
    """Truncated ladder operators: a|k> = sqrt(k)|k-1>, hard cutoff.

    The commutator [a, a^dag] equals 1 except for the bottom-right entry,
    which is 1 - levels (truncation artifact).
    """
    if levels < 2:
        raise ValueError("degenerate space: need levels >= 2")
    space = boson_space(levels)
    a = np.diag(np.sqrt(np.arange(1, levels)), k=1).astype(complex)
    adag = a.conj().T
    return {
        "a": Operator(space, a),
        "adag": Operator(space, adag),
        "n": Operator(space, adag @ a),
        "identity": Operator(space, np.eye(levels, dtype=complex)),
    }


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product on the composite space (dims concatenated),
    formed as np.kron forms it, so its entries are np.kron's bitwise."""
    space = HilbertSpace(a.space.dims + b.space.dims)
    prod = a.matrix[:, None, :, None] * b.matrix[None, :, None, :]
    return Operator(space, prod.reshape(space.dim, space.dim))


def hs_inner(a: Operator, b: Operator) -> complex:
    """Hilbert-Schmidt inner product <A|B> = Tr(A^dag B)."""
    if not a.space.compatible(b.space):
        raise SpaceMismatchError("hs_inner requires operators on the same space")
    return complex(np.vdot(a.matrix, b.matrix))


def hs_norm(a: Operator) -> float:
    """Hilbert-Schmidt norm sqrt(<A|A>) (= Frobenius norm)."""
    return float(np.linalg.norm(a.matrix))


def hermitian_spectral_decomposition(a: Operator, tol: float = DEFAULT_HERM_TOL) -> HermitianDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues descending.

    Raises HermiticityError if the input deviates from Hermiticity by
    more than tol relative to its largest entry.
    """
    if not a.is_hermitian(tol):
        raise HermiticityError("not Hermitian")
    herm = 0.5 * (a.matrix + a.matrix.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    order = np.argsort(vals)[::-1]
    return HermitianDecomposition(vals[order].copy(), vecs[:, order].copy())
