"""Spectral analysis of superoperators and effective Hamiltonians.

liouvillian_eigensystem is what spectra, sweeps and the EP search read:
one right-only eig of a trace-preserving generator.  Every eig is taken
one weakly connected sector of the matrix at a time (_block_eig): the
weak-symmetry blocks of a Liouvillian, the excitation blocks of H_eff.
Eigenvalues closer than a cluster tolerance are grouped in the complex
plane and replaced by their cluster mean before the sort, and the
zero-eigenvalue sector is orthonormalized.  analyze_liouvillian runs the
same stages on one eig that also returns the left eigenvectors, already
paired: the clusters decide which eigenmatrices get a Hermitian
representative and are the blocks in which left and right eigenmatrices
are scaled so that Tr(sigma_i rho_j) = delta_ij, and the steady state
comes from the zero-eigenvalue sector.  Near-defective clusters are flagged instead of
force-normalized: the spectral expansion of the dynamics is invalid
exactly at an exceptional point, and silently rescaled left
eigenmatrices there would poison every downstream coefficient.

Sorting convention: |Re(lambda)| ascending, ties broken by Im(lambda)
ascending; only exact ties of both fall through to a deterministic
tiebreak on the eigenvector entries (lexicographic).  For effective
Hamiltonians the analogous order is |Im(h)| ascending then Re(h): the
no-jump generator maps h onto -i(h_l - h_m^*), so Im(h) plays the role
of Re(lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

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

def _sort_indices(primary: np.ndarray, secondary: np.ndarray,
                  vecs: np.ndarray) -> np.ndarray:
    """Total deterministic order: primary key, secondary key, then the
    eigenvector entries (re, im of each, lexicographic), which only ever
    break exact ties of the two keys."""
    order = np.lexsort((secondary, primary))
    p, q = primary[order], secondary[order]
    tied = np.r_[0, (p[1:] == p[:-1]) & (q[1:] == q[:-1]), 0].astype(np.int8)
    # each run of ties spans order[start:stop + 1]
    for start, stop in np.flatnonzero(np.diff(tied)).reshape(-1, 2):
        group = order[start:stop + 1]
        rows = np.ascontiguousarray(vecs[:, group].T).view(float)
        # entries equal across the group cannot change a lexicographic order
        varying = (rows != rows[0]).any(axis=0)
        if varying.any():
            order[start:stop + 1] = group[np.lexsort(rows[:, varying].T[::-1])]
    return order


def _canonical_phase(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate a vector, or each column of a stack, so that its
    largest-magnitude entry is real and positive; zero columns stay zero.
    With out=v the rotation is done in place."""
    piv = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None], axis=0)[0]
    # one scalar division per pivot: numpy's array complex division can
    # round differently from its scalar division
    scale = [abs(p) / p if p != 0 else 1.0 for p in np.ravel(piv)]
    return np.multiply(v, np.reshape(scale, np.shape(piv)), out=out)


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on nodes 0..n-1 with
    one edge src[k] -- dst[k] per k, by min-label propagation: each node
    is labelled with the smallest node of its component."""
    src, dst = np.r_[src, dst], np.r_[dst, src]
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, src, labels[dst])
        # pointer jumping: each label is a smaller node of the same component
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _block_eig(mat: np.ndarray, left: bool = False):
    """eig of mat, one weakly connected sector at a time.

    The sectors are the connected components of the sparsity graph of
    (mat != 0) | (mat != 0).T, labelled over the nonzero entries.  A 1x1
    sector is its diagonal entry with a unit vector; only sectors of size
    >= 2 go to eig.  Returns (vals, vecs), or (vals, lvecs, vecs) with
    left, as eig does, over the full index range: each vector is nonzero
    only on its own sector.  Right-only sectors go to np.linalg.eig;
    scipy.linalg.eig, imported here at first use, is called only for the
    left vectors, which numpy does not return.  Both run LAPACK geev.
    """
    n = mat.shape[0]
    labels = _components(n, *np.nonzero(mat))
    sizes = np.bincount(labels, minlength=n)[labels]
    vals = np.empty(n, dtype=complex)
    vecs = np.zeros((n, n), dtype=complex)
    single = np.flatnonzero(sizes == 1)
    vals[single] = mat[single, single]
    # eig checks its own blocks; the 1x1 sectors bypass it
    if not np.isfinite(vals[single]).all():
        raise ValueError("array must not contain infs or NaNs")
    vecs[single, single] = 1.0
    lvecs = vecs.copy() if left else None
    for root in np.unique(labels[sizes > 1]):
        idx = np.flatnonzero(labels == root)
        block = np.ix_(idx, idx)
        if left:
            import scipy.linalg
            vals[idx], lvecs[block], vecs[block] = scipy.linalg.eig(mat[block], left=True)
        else:
            # real arrays when every eigenvalue is real: the assignment
            # into the complex vals and vecs converts them
            vals[idx], vecs[block] = np.linalg.eig(mat[block])
    return (vals, lvecs, vecs) if left else (vals, vecs)


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
    """Eigenvalues plus unit eigenvectors in a fixed inner-product space."""

    values: np.ndarray
    vectors: np.ndarray
    zero_mask: np.ndarray

    @property
    def size(self) -> int:
        return len(self.values)


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


def _cluster_sort(mat: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """Unit right vectors, complex-plane cluster means and the sort.

    Returns the sorted vals, vecs and cluster labels, and the permutation
    applied, for arrays paired with the input columns.
    """
    vecs /= np.linalg.norm(vecs, axis=0)
    # a defective eigenvalue splits by O(sqrt(eps ||L||)) in double
    # precision; clustering just above that scale lets the cluster mean
    # restore O(eps) accuracy at exceptional points.
    # sqrt(||L||_1 ||L||_inf) bounds ||L||_2 from above without an SVD
    # (1.0-1.6x the 2-norm on the bundled models, so the tolerance grows
    # by at most sqrt(1.6) = 1.27x)
    norm_bound = np.sqrt(np.linalg.norm(mat, 1) * np.linalg.norm(mat, np.inf))
    tol = max(1e-9, 4.0 * np.sqrt(np.finfo(float).eps * norm_bound))
    # clusters in the complex plane: each unlabelled eigenvalue claims every
    # unlabelled eigenvalue within tol, and the cluster is replaced by its
    # mean.  Clustering before the sort matters: rounding of L interleaves
    # exactly degenerate eigenvalues in (|Re|, Im) order.  A mean within tol
    # of the real axis is made real; otherwise the unlabelled eigenvalues
    # within tol of its conjugate form the partner cluster, which takes the
    # exact conjugate mean, so a conjugate pair sorts by Im, not by the last
    # bit of Re.
    labels = np.full(len(vals), -1)
    n_clusters = 0
    for i in range(len(vals)):
        if labels[i] >= 0:
            continue
        members = np.flatnonzero((labels < 0) & (np.abs(vals - vals[i]) <= tol))
        mean = vals[members].mean()
        labels[members] = n_clusters
        n_clusters += 1
        if abs(mean.imag) <= tol:
            vals[members] = mean.real
            continue
        vals[members] = mean
        partners = np.flatnonzero((labels < 0) & (np.abs(vals - mean.conjugate()) <= tol))
        if partners.size:
            labels[partners] = n_clusters
            vals[partners] = mean.conjugate()
            n_clusters += 1
    order = _sort_indices(np.abs(vals.real), vals.imag, vecs)
    return vals[order], vecs[:, order], labels[order], order


def _zero_sector(vals: np.ndarray, vecs: np.ndarray, zero_tol: float):
    """Zero mask, orthonormal zero-sector basis q and its rank.

    The sector is guaranteed diagonalizable, so its span is an invariant
    subspace, and q replaces its columns of vecs in place.
    """
    zero_mask = np.abs(vals) <= zero_tol
    if not zero_mask.any():
        raise SpectralError(f"not a Liouvillian: no eigenvalue within zero_tol = {zero_tol:.2e}")
    zblock = vecs[:, zero_mask]
    svals = np.linalg.svd(zblock, compute_uv=False)
    q, _ = np.linalg.qr(zblock)
    vecs[:, zero_mask] = q
    return zero_mask, q, int(np.sum(svals > 1e-8 * svals[0]))


def _check_trace_row(liou: SuperOp) -> None:
    """Refuse a generator that is not trace preserving."""
    if not is_trace_preserving(liou):
        raise SpectralError(f"not a Liouvillian: trace row |vec(1)^dag L| = "
                            f"{np.linalg.norm(trace_row(liou)):.2e} exceeds 1e-12 |L|_F = "
                            f"{1e-12 * np.linalg.norm(liou.matrix):.2e}")


def liouvillian_eigensystem(liou: SuperOp,
                            zero_tol: float = DEFAULT_ZERO_TOL) -> Eigensystem:
    """Eigenvalues, unit right eigenmatrices and zero mask of a generator.

    One right-only eig per sector, clustered, sorted and with the zero sector
    orthonormalized as in analyze_liouvillian; every vector carries the
    canonical phase.  Raises SpectralError when the trace row does not
    vanish or no eigenvalue lies within zero_tol.
    """
    _check_trace_row(liou)
    vals, vecs = _block_eig(liou.matrix)
    vals, vecs, _, _ = _cluster_sort(liou.matrix, vals, vecs)
    zero_mask, _, _ = _zero_sector(vals, vecs, zero_tol)
    return Eigensystem(vals, _canonical_phase(vecs, out=vecs), zero_mask)


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
    mat = liou.matrix
    n = mat.shape[0]
    # left vector i is paired with eigenvalue i:
    # lvecs[:, i]^dag L = vals[i] lvecs[:, i]^dag
    vals, lvecs, vecs = _block_eig(mat, left=True)
    vals, vecs, labels, order = _cluster_sort(mat, vals, vecs)
    lvecs /= np.linalg.norm(lvecs, axis=0)
    lvecs = lvecs[:, order]
    sizes = np.bincount(labels)
    zero_mask, q, zero_rank = _zero_sector(vals, vecs, zero_tol)

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


def nhh_eigensystem(mat: np.ndarray) -> Eigensystem:
    """Eigenvalues and unit right eigenvectors of H_eff, sorted by (|Im h|, Re h),
    in canonical phase; the zero mask is empty."""
    vals, vecs = _block_eig(mat)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    order = _sort_indices(np.abs(vals.imag), vals.real, vecs)
    return Eigensystem(vals[order], _canonical_phase(vecs[:, order]),
                       np.zeros(len(vals), dtype=bool))


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
