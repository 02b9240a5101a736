"""The bundled model families and their closed-form spectra.

Four parametric open systems, each exposing a builder plus (where one
exists) a closed form the dense numerics must reproduce:

  example1   qubit, H = (omega/2) sigma_z, three competing decay
             channels sigma_-, sigma_x, sigma_y.  The generator has two
             EPs (gamma_x = gamma_y -+ omega for gamma_y > omega) while
             the effective Hamiltonian, being diagonal, has none.
  example2   driven decaying qubit, H = (omega_x/2) sigma_x with a
             sigma_- channel.  The effective Hamiltonian has an EP at
             gamma_- = 2 omega_x, the full generator at 4 omega_x.
  example3   two bosonic modes exchanging excitations, each decaying at
             its own rate.  Every excitation block of the effective
             Hamiltonian reaches its EP at the same coupling
             g = (gamma_a - gamma_b)/4.
  dephasing  oscillator with a number-operator jump; all eigenmatrices
             are |m><n| with eigenvalues -i omega (m-n) - gamma/2 (m-n)^2
             (the commuting-jump case, exact at any cutoff).

Closed-form sign conventions were fixed against brute-force
diagonalization; rates fold into jump operators as sqrt(rate) * X
(see superop).  All spectra are printed-formula-compatible under the
qubit basis (|g>, |e>) of ops_core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ModelBuildError
from .ops_core import DEFAULT_ZERO_TOL, Operator, build_boson_ops, build_qubit_ops, tensor
from .superop import (
    LindbladModel,
    _assemble_grid,
    _effective_hamiltonians,
    assemble_liouvillian,
    effective_hamiltonian,
)

if TYPE_CHECKING:
    from .ep_detect import SpectrumFamily


def _require_rate(name: str, value: float) -> float:
    value = float(value)
    if value < 0:
        raise ModelBuildError(f"{name} must be >= 0, got {value}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if value <= 0:
        raise ModelBuildError(f"{name} must be > 0, got {value}")
    return value


def _require_levels(name: str, value) -> int:
    iv = int(value)
    if iv != value or iv < 2:
        raise ModelBuildError(f"{name} must be an integer >= 2, got {value}")
    return iv


def _hamiltonian(space, *terms) -> Operator:
    """H = sum of coefficient * matrix over the (coefficient, matrix) terms,
    in order.  A parameter large enough that an entry overflows is refused
    as a model error."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = float(terms[0][0]) * terms[0][1]
        for c, m in terms[1:]:
            h = h + float(c) * m
    if not np.isfinite(h).all():
        raise ModelBuildError("the Hamiltonian overflows: a parameter is too large "
                              "for finite entries")
    return Operator(space, h)


@lru_cache(maxsize=16)
def _boson_ops(levels: int) -> tuple[Operator, Operator, Operator]:
    """The ladder, number and identity operators of build_boson_ops, built
    once per cutoff: an Operator is frozen and its matrix read-only."""
    bos = build_boson_ops(levels)
    return bos["a"], bos["n"], bos["identity"]


# ---------------------------------------------------------------------------
# example 1: qubit with three competing decay channels
# ---------------------------------------------------------------------------

def example1(omega: float, gamma_minus: float, gamma_x: float, gamma_y: float) -> LindbladModel:
    gm = _require_rate("gamma_minus", gamma_minus)
    gx = _require_rate("gamma_x", gamma_x)
    gy = _require_rate("gamma_y", gamma_y)
    q = build_qubit_ops()
    h = _hamiltonian(q["sigma_z"].space, (0.5 * float(omega), q["sigma_z"].matrix))
    return LindbladModel(h, ((gm, q["sigma_minus"]),
                             (gx, q["sigma_x"]),
                             (gy, q["sigma_y"])))


def example1_closed_form(omega: float, gamma_minus: float, gamma_x: float,
                         gamma_y: float) -> dict:
    """Eigenvalues and eigenmatrices of the three-channel qubit.

    lambdas = (0, -gamma_-/2 - gx - gy +- Omega, -gamma_- - 2(gx+gy))
    with Omega = sqrt(gx^2 + gy^2 - 2 gx gy - omega^2).  The last
    eigenvalue is sign-corrected relative to its usual typesetting: the
    +gamma_- variant is positive at gx = gy = 0, contradicting
    Re(lambda) <= 0, and brute force confirms the minus sign.  The
    steady state carries the larger population on |g> (first diagonal
    entry).  The coherence eigenmatrices are valid for gx != gy.
    """
    w, gm, gx, gy = float(omega), float(gamma_minus), float(gamma_x), float(gamma_y)
    big_omega = np.sqrt(complex(gx ** 2 + gy ** 2 - 2 * gx * gy - w ** 2))
    lambdas = np.array([
        0.0,
        -gm / 2 - gx - gy + big_omega,
        -gm / 2 - gx - gy - big_omega,
        -gm - 2 * (gx + gy),
    ], dtype=complex)
    norm = gm + 2 * (gx + gy)
    if norm > 0:
        rho_ss = np.diag([(gm + gx + gy) / norm, (gx + gy) / norm]).astype(complex)
    else:
        # unitary limit: every diagonal state is stationary
        rho_ss = np.eye(2, dtype=complex) / 2
    rho1 = np.array([[0, -1j * w + big_omega], [gx - gy, 0]], dtype=complex)
    rho2 = np.array([[0, -1j * w - big_omega], [gx - gy, 0]], dtype=complex)
    rho3 = np.diag([-1.0, 1.0]).astype(complex)
    return {
        "lambdas": lambdas,
        "rhos": [rho_ss, rho1, rho2, rho3],
        "Omega": big_omega,
    }


# ---------------------------------------------------------------------------
# example 2: driven decaying qubit
# ---------------------------------------------------------------------------

def example2(omega_x: float, gamma_minus: float) -> LindbladModel:
    wx = _require_positive("omega_x", omega_x)
    gm = _require_rate("gamma_minus", gamma_minus)
    q = build_qubit_ops()
    h = _hamiltonian(q["sigma_x"].space, (0.5 * wx, q["sigma_x"].matrix))
    return LindbladModel(h, ((gm, q["sigma_minus"]),))


def example2_closed_form(omega_x: float, gamma_minus: float) -> dict:
    """Closed-form spectra of the driven decaying qubit.

    Effective Hamiltonian: h_{1,2} = (-i gamma_- -+ zeta)/4 with
    zeta = sqrt(4 omega_x^2 - gamma_-^2) and eigenvectors
    (i gamma_- -+ zeta, 2 omega_x); EP at gamma_- = 2 omega_x.

    Generator: lambda = (0, -gamma_-/2, -3 gamma_-/4 +- eta/4) with
    eta = sqrt(gamma_-^2 - 16 omega_x^2); EP at gamma_- = 4 omega_x.
    psi2/psi3 hold the +- wave functions of the spectral decomposition
    of the coherence eigenmatrices (columns: +, -); for gamma_- above
    the generator EP they are exactly the eigenvectors of rho_2, rho_3.
    """
    wx, gm = float(omega_x), float(gamma_minus)
    zeta = np.sqrt(complex(4 * wx ** 2 - gm ** 2))
    eta = np.sqrt(complex(gm ** 2 - 16 * wx ** 2))
    h = np.array([(-1j * gm - zeta) / 4, (-1j * gm + zeta) / 4])
    phis = np.stack([
        np.array([1j * gm - zeta, 2 * wx]),
        np.array([1j * gm + zeta, 2 * wx]),
    ], axis=1)
    phis = phis / np.linalg.norm(phis, axis=0)
    lambdas = np.array([0.0, -gm / 2, -3 * gm / 4 + eta / 4, -3 * gm / 4 - eta / 4],
                       dtype=complex)
    rho_ss = np.array([[gm ** 2 + wx ** 2, 1j * gm * wx],
                       [-1j * gm * wx, wx ** 2]], dtype=complex) / (gm ** 2 + 2 * wx ** 2)
    rho1 = np.array([[0, 1], [1, 0]], dtype=complex)
    rho2 = np.array([[-gm + eta, 4j * wx], [-4j * wx, gm - eta]], dtype=complex)
    rho3 = np.array([[-gm - eta, 4j * wx], [-4j * wx, gm + eta]], dtype=complex)

    def _unit(v):
        return v / np.linalg.norm(v)

    psi2 = np.stack([
        _unit(np.array([1j * (-gm + eta + s * np.sqrt(2 * gm * (gm - eta))), 4 * wx]))
        for s in (+1, -1)], axis=1)
    psi3 = np.stack([
        _unit(np.array([-1j * (gm + eta + s * np.sqrt(2 * gm * (gm + eta))), 4 * wx]))
        for s in (+1, -1)], axis=1)
    return {
        "h": h,
        "phis": phis,
        "lambdas": lambdas,
        "rhos": [rho_ss, rho1, rho2, rho3],
        "psi2": psi2,
        "psi3": psi3,
        "zeta": zeta,
        "eta": eta,
        "hep": 2 * wx,
        "lep": 4 * wx,
    }


# ---------------------------------------------------------------------------
# example 3: two coupled lossy bosonic modes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _two_mode_ops(levels: int) -> tuple:
    """a, b, the read-only matrices n_a + n_b and a^dag b + b^dag a of the
    two-mode model at a cutoff, built once per cutoff."""
    ladder, n, ident = _boson_ops(levels)
    a, b = tensor(ladder, ident), tensor(ident, ladder)
    number = tensor(n, ident).matrix + tensor(ident, n).matrix
    hop = a.matrix.conj().T @ b.matrix + b.matrix.conj().T @ a.matrix
    number.flags.writeable = hop.flags.writeable = False
    return a, b, number, hop


def example3(omega: float, g: float, gamma_a: float, gamma_b: float,
             levels: int = 4) -> LindbladModel:
    ga = _require_rate("gamma_a", gamma_a)
    gb = _require_rate("gamma_b", gamma_b)
    lv = _require_levels("levels", levels)
    a, b, number, hop = _two_mode_ops(lv)
    h = _hamiltonian(a.space, (omega, number), (g, hop))
    return LindbladModel(h, ((ga, a), (gb, b)))


def example3_spectrum(omega: float, g: float, gamma_a: float, gamma_b: float,
                      levels: int) -> dict:
    """The spectrum of the untruncated two-mode generator, the oracle of
    the truncated one.

    H_eff keeps the excitation numbers (N_l, N_r) of |m><n| and the jumps
    lower both, so L is block triangular on the (N_l, N_r) blocks, whose
    eigenvalues, without a cutoff, are the lattice
        lambda = m1 kappa1 + m2 kappa2 + n1 conj(kappa1) + n2 conj(kappa2),
    m1 + m2 = N_l, n1 + n2 = N_r, over the eigenvalues kappa of
    -i example3_mean_field_matrix: kappa = -i omega - gbar/2 -+ i theta,
    theta^2 = g^2 - gamma^2/4 (gbar, gamma as in
    example3_one_excitation_closed_form).

    Returns lambdas over every (N_l, N_r) with N_l, N_r <= 2 (levels - 1),
    the largest excitation number under the cutoff; sectors, each
    value's (N_l, N_r), with m1 then n1 descending inside a sector;
    complete, set where N_l, N_r <= levels - 1, the blocks that the
    cutoff leaves whole, so that their eigenvalues are exactly these; and
    jordan, each sector's Jordan partition at kappa1 = kappa2 (g =
    gamma/2), where H_eff's N-excitation block is one Jordan block of size
    N + 1, and the Kronecker sum of two such blocks splits as
    N_l + N_r + 1, N_l + N_r - 1, ..., |N_l - N_r| + 1.
    """
    w, gg = float(omega), float(g)
    gbar = (float(gamma_a) + float(gamma_b)) / 2
    gamma = (float(gamma_a) - float(gamma_b)) / 2
    theta = np.sqrt(complex(gg ** 2 - gamma ** 2 / 4))
    kappa = -1j * np.array([w - 0.5j * gbar + theta, w - 0.5j * gbar - theta])
    top = 2 * (_require_levels("levels", levels) - 1)
    sectors, counts = [], []
    for nl in range(top + 1):
        for nr in range(top + 1):
            for m1 in range(nl, -1, -1):
                for n1 in range(nr, -1, -1):
                    sectors.append((nl, nr))
                    counts.append((m1, nl - m1, n1, nr - n1))
    sectors, counts = np.array(sectors), np.array(counts)
    lambdas = (counts[:, 0] * kappa[0] + counts[:, 1] * kappa[1]
               + counts[:, 2] * kappa[0].conj() + counts[:, 3] * kappa[1].conj())
    return {
        "lambdas": lambdas,
        "sectors": sectors,
        "complete": sectors.max(axis=1) <= levels - 1,
        "jordan": {(nl, nr): tuple(range(nl + nr + 1, abs(nl - nr), -2))
                   for nl in range(top + 1) for nr in range(top + 1)},
        "kappa": kappa,
        "theta": theta,
        "gbar": gbar,
        "gamma": gamma,
    }


def example3_one_excitation_closed_form(omega: float, g: float, gamma_a: float,
                                        gamma_b: float) -> dict:
    """Single-excitation block of the two-mode effective Hamiltonian: the
    N = 1 case of example3_spectrum, h = i lambda on sector (1, 0).

    In the basis (|1,0>, |0,1>) the block is
    (omega - i gbar/2) 1 + [[-i gamma/2, g], [g, +i gamma/2]] with
    gbar = (gamma_a + gamma_b)/2 and gamma = (gamma_a - gamma_b)/2,
    eigenvalues h = omega - i gbar/2 +- theta, theta^2 = g^2 - gamma^2/4,
    eigenvectors g |1,0> + (i gamma/2 +- theta)|0,1>; EP at g = gamma/2.
    """
    spec = example3_spectrum(omega, g, gamma_a, gamma_b, levels=2)
    one = (spec["sectors"] == (1, 0)).all(axis=1)
    gg, gamma, theta = float(g), spec["gamma"], spec["theta"]
    h = 1j * spec["lambdas"][one]
    phis = np.stack([
        np.array([gg, 0.5j * gamma + theta]),
        np.array([gg, 0.5j * gamma - theta]),
    ], axis=1)
    norms = np.linalg.norm(phis, axis=0)
    phis = phis / np.where(norms == 0, 1.0, norms)
    return {
        "h": h,
        "phis": phis,
        "theta": theta,
        "gbar": spec["gbar"],
        "gamma": gamma,
        "ep_coupling": gamma / 2,
    }


def example3_excitation_block(omega: float, g: float, gamma_a: float,
                              gamma_b: float, n_exc: int) -> np.ndarray:
    """Effective Hamiltonian restricted to the n-excitation sector.

    Built directly from the mode structure, independent of any cutoff,
    in the basis (|n,0>, |n-1,1>, ..., |0,n>): diagonal
    omega n - i(gamma_a (n-j) + gamma_b j)/2, hopping
    g sqrt(j (n-j+1)) between neighbors.  For n = 1 this is the matrix
    of the single-excitation closed form.
    """
    if n_exc < 1:
        raise ValueError("excitation number must be >= 1")
    w, gg = float(omega), float(g)
    ga, gb = float(gamma_a), float(gamma_b)
    dim = n_exc + 1
    block = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        block[j, j] = w * n_exc - 0.5j * (ga * (n_exc - j) + gb * j)
    for j in range(1, dim):
        hop = gg * np.sqrt(j * (n_exc - j + 1))
        block[j - 1, j] = hop
        block[j, j - 1] = hop
    return block


def example3_mean_field_matrix(omega: float, g: float, gamma_a: float,
                               gamma_b: float) -> np.ndarray:
    """Drift matrix M of d/dt (<a>, <b>) = -i M (<a>, <b>)."""
    w, gg = float(omega), float(g)
    return np.array([[w - 0.5j * float(gamma_a), gg],
                     [gg, w - 0.5j * float(gamma_b)]], dtype=complex)


def example3_ep_pair_states() -> np.ndarray:
    """Vacuum/one-excitation pair states at the two-mode EP.

    Columns are the two unit vectors
    |0,0>/sqrt(2) +- exp(i pi/4)(|1,0> + i|0,1>)/2 in the basis
    (|0,0>, |1,0>, |0,1>): the spectral decomposition of the Hermitian
    combination of |phi_EP><0,0| and its adjoint.
    """
    phase = (1 + 1j) / np.sqrt(2)
    phi = phase * np.array([0.0, 1.0, 1j]) / np.sqrt(2)
    vac = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi1 = (vac + phi) / np.sqrt(2)
    psi2 = (vac - phi) / np.sqrt(2)
    return np.stack([psi1, psi2], axis=1)


# ---------------------------------------------------------------------------
# dephasing oscillator
# ---------------------------------------------------------------------------

def dephasing(omega: float, gamma: float, levels: int = 4) -> LindbladModel:
    gm = _require_rate("gamma", gamma)
    lv = _require_levels("levels", levels)
    n = _boson_ops(lv)[1]
    h = _hamiltonian(n.space, (omega, n.matrix))
    return LindbladModel(h, ((gm, n),))


def dephasing_closed_form(omega: float, gamma: float, levels: int = 4) -> dict:
    """lambda[m, n] = -i omega (m - n) - gamma/2 (m - n)^2, eigenmatrix |m><n|."""
    lv = _require_levels("levels", levels)
    m = np.arange(lv)
    diff = m[:, None] - m[None, :]
    lambdas = -1j * float(omega) * diff - 0.5 * float(gamma) * diff ** 2
    return {"lambdas": lambdas.astype(complex)}


# ---------------------------------------------------------------------------
# family registry and sweep adapters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelFamily:
    """A named parametric model: its full parameter table plus one sweep knob.

    params holds a value for every builder argument; an integer value
    (a cutoff such as levels) fixes the model size and cannot be swept.
    """

    name: str
    builder: Callable[..., LindbladModel]
    params: dict
    sweep_param: str

    def build(self, value: float | None = None,
              sweep_param: str | None = None) -> LindbladModel:
        if value is None:
            return self.builder(**self.params)
        return self.builder(**{**self.params, sweep_param or self.sweep_param: value})

    def with_params(self, **fixed) -> "ModelFamily":
        unknown = set(fixed) - set(self.params)
        if unknown:
            raise ModelBuildError(
                f"unknown parameter(s) {sorted(unknown)} for model '{self.name}'; "
                f"available: {list(self.params)}")
        return replace(self, params={**self.params, **fixed})

    def liouvillian_family(self, sweep_param: str | None = None,
                           zero_tol: float = DEFAULT_ZERO_TOL) -> SpectrumFamily:
        # the EP search and the eigensolvers load only when a family is made
        from .ep_detect import SpectrumFamily
        from .spectral import _each_point, _grid_eigensystems

        param = sweep_param or self.sweep_param

        def build(value: float) -> LindbladModel:
            return self.build(value, param)

        def eigensystem(values) -> tuple:
            # every point's model is built and validated, then the grid is
            # assembled as one block-diagonal generator
            return _grid_eigensystems(*_assemble_grid(_each_point(build, values)), zero_tol)

        return SpectrumFamily(param, eigensystem,
                              lambda value: assemble_liouvillian(build(value)).matrix,
                              self.build().space)

    def nhh_family(self, sweep_param: str | None = None) -> SpectrumFamily:
        from .ep_detect import SpectrumFamily
        from .spectral import _each_point, nhh_eigensystems

        param = sweep_param or self.sweep_param

        def build(value: float) -> LindbladModel:
            return self.build(value, param)

        def eigensystem(values) -> tuple:
            # every point's model is built and validated, then the grid's
            # H_eff stack is made in one pass
            return nhh_eigensystems(_effective_hamiltonians(_each_point(build, values)))

        return SpectrumFamily(param, eigensystem,
                              lambda value: effective_hamiltonian(build(value)).matrix)


_FAMILIES = {
    "example1": ModelFamily(
        "example1", example1,
        {"omega": 1.0, "gamma_minus": 0.0, "gamma_x": 0.0, "gamma_y": 2.0}, "gamma_x"),
    "example2": ModelFamily(
        "example2", example2, {"omega_x": 1.0, "gamma_minus": 1.0}, "gamma_minus"),
    "example3": ModelFamily(
        "example3", example3,
        {"omega": 1.0, "g": 0.1, "gamma_a": 1.0, "gamma_b": 0.5, "levels": 4}, "g"),
    "dephasing": ModelFamily(
        "dephasing", dephasing, {"omega": 1.0, "gamma": 1.0, "levels": 4}, "gamma"),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def get_family(name: str, **fixed) -> ModelFamily:
    """Look up a model family by name, optionally fixing parameters."""
    if name not in _FAMILIES:
        raise ModelBuildError(
            f"unknown model '{name}'; available families: {', '.join(family_names())}")
    fam = _FAMILIES[name]
    return fam.with_params(**fixed) if fixed else fam


def example3_block_family(omega: float, gamma_a: float, gamma_b: float,
                          n_exc: int) -> SpectrumFamily:
    """Coupling sweep of one excitation block of the two-mode model."""
    from .ep_detect import SpectrumFamily
    from .spectral import _each_point, nhh_eigensystems

    def matrix(g: float) -> np.ndarray:
        return example3_excitation_block(omega, g, gamma_a, gamma_b, n_exc)

    return SpectrumFamily("g", lambda values: nhh_eigensystems(_each_point(matrix, values)),
                          matrix)


# ---------------------------------------------------------------------------
# observable curves of the driven decaying qubit
# ---------------------------------------------------------------------------

def sigma_z_expectations(omega_x: float, gamma_grid) -> dict:
    """<sigma_z> curves of the driven decaying qubit (plot data).

    For each decay rate the dictionary carries
      nhh[:, k]     over the two effective-Hamiltonian eigenvectors,
      pm[:, k]      over the +-states of the spectral decomposition of
                    the coherence eigenmatrices, rows ordered
                    (psi2+, psi2-, psi3+, psi3-),
      steady[k]     the stationary value Tr(sigma_z rho_ss).

    The pm states are taken from the closed form: above the generator
    EP (where the coherence eigenmatrices are Hermitizable) they are
    exactly the eigenvectors produced by pm_decomposition; below it the
    closed form continues them analytically, and the psi2 and psi3
    state pairs mirror each other, so only two distinct curves exist.
    The nhh pair splits at gamma_- = 2 omega_x, the pm families split
    at 4 omega_x: the jump term displaces the bifurcation.

    Sign convention: sigma_z = diag(+1, -1) with the ground state first.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    q = build_qubit_ops()
    sz = q["sigma_z"].matrix

    def expect(vec: np.ndarray) -> float:
        n2 = float(np.real(np.vdot(vec, vec)))
        return float(np.real(np.vdot(vec, sz @ vec))) / n2

    nhh_curves = np.zeros((2, gamma_grid.size))
    pm_curves = np.zeros((4, gamma_grid.size))
    steady = np.zeros(gamma_grid.size)
    for k, gm in enumerate(gamma_grid):
        cf = example2_closed_form(omega_x, gm)
        nhh_curves[:, k] = [expect(cf["phis"][:, 0]), expect(cf["phis"][:, 1])]
        pm_curves[:, k] = [expect(cf["psi2"][:, 0]), expect(cf["psi2"][:, 1]),
                           expect(cf["psi3"][:, 0]), expect(cf["psi3"][:, 1])]
        steady[k] = float(np.real(np.trace(sz @ cf["rhos"][0])))
    return {
        "gamma": gamma_grid,
        "nhh": nhh_curves,
        "pm": pm_curves,
        "steady": steady,
        "convention": "sigma_z = diag(+1, -1), ground state first",
    }
