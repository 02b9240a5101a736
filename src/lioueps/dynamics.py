"""Time propagation and quantum-trajectory unraveling.

Two propagation routes with disjoint validity:

  propagate_modes   eigenmode expansion rho(t) = sum_i c_i exp(lambda_i t)
                    rho_i with c_i = Tr(sigma_i rho(0)).  Refuses to run
                    when a defect-flagged mode carries weight: the
                    expansion is invalid at an exceptional point.
  propagate_expm    dense matrix exponential of the generator; works
                    everywhere, including at EPs.

At an EP the decay of an observable is not a sum of complex
exponentials but carries a polynomial prefactor; ep_decay_fit measures
that signature by comparing the fits (alpha + beta t) exp(lambda t)
against the pure-exponential restriction beta = 0.

trajectories implements the counting unraveling: between jumps the
state evolves under the effective Hamiltonian (exact step
exp(-i dt H_eff), renormalized); with probability
dt <psi|Gamma^dag Gamma|psi> per channel the wave function collapses to
Gamma psi / |Gamma psi|.  Averaging all trajectories recovers the full
generator; keeping only the no-jump record realizes the no-jump
generator, with the survival probability equal to its trace loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SpectralError
from .ops_core import Operator
from .spectral import Spectrum
from .superop import (
    LindbladModel,
    SuperOp,
    effective_hamiltonian,
    is_trace_preserving,
    vectorize,
)


@dataclass(frozen=True)
class Propagation:
    """States on a time grid, with the mode weights when known.

    states[k] is the density matrix at times[k]; mode_coefficients[i, k]
    holds c_i exp(lambda_i times[k]) for the eigenmode route and is None
    for the matrix-exponential route.
    """

    times: np.ndarray
    states: np.ndarray
    mode_coefficients: np.ndarray | None = None

    def expectation(self, op: Operator) -> np.ndarray:
        return np.einsum("kij,ji->k", self.states, op.matrix)

    def traces(self) -> np.ndarray:
        return np.einsum("kii->k", self.states)

    def purities(self) -> np.ndarray:
        return np.real(np.einsum("kij,kji->k", self.states, self.states))


def _is_density(rho: Operator) -> bool:
    m = rho.matrix
    if abs(np.trace(m) - 1) > 1e-9:
        return False
    if np.abs(m - m.conj().T).max() > 1e-9 * max(np.abs(m).max(), 1.0):
        return False
    return bool(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() > -1e-8)


def _validate_density_track(states: np.ndarray, times: np.ndarray, scale=1.0):
    # trace and Hermiticity bounds: 1e-10 times the size of the summands
    # the states were built from (scale, one for all times or per time)
    bound = 1e-10 * np.broadcast_to(scale, times.shape)
    err = np.abs(np.einsum("kii->k", states) - 1)
    if np.any(err > bound):
        raise SpectralError(f"trace preservation violated: max |Tr rho - 1| = {err.max():.2e}")
    for k in range(len(times)):
        m = states[k]
        if np.abs(m - m.conj().T).max() > bound[k] * max(np.abs(m).max(), 1.0):
            raise SpectralError(f"Hermiticity violated at t = {times[k]}")
        if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -1e-8:
            raise SpectralError(f"state positivity violated at t = {times[k]}")


def propagate_modes(spectrum: Spectrum, rho0: Operator, times) -> Propagation:
    """Eigenmode-expansion propagation under the analyzed generator.

    Raises SpectralError when a defect-flagged mode has nonzero weight
    (|Tr(sigma_i rho0)| > 1e-12): use propagate_expm near an EP.
    """
    times = np.asarray(times, dtype=float)
    weights = spectrum.mode_weights(rho0)
    flagged = np.flatnonzero(spectrum.defect_flags & (np.abs(weights) > 1e-12))
    if flagged.size:
        raise SpectralError(
            f"defect-flagged mode(s) {flagged.tolist()} carry weight: "
            "use propagate_expm near EP")
    phases = np.exp(np.outer(spectrum.eigenvalues, times))
    coeffs = weights[:, None] * phases
    states = np.einsum("ik,ijl->kjl", coeffs,
                       spectrum.right_mats.reshape(len(weights), spectrum.dim, spectrum.dim))
    if _is_density(rho0):
        # unit-norm rho_i: rounding scales with sum_i |c_i exp(lambda_i t)|
        _validate_density_track(states, times, np.maximum(np.abs(coeffs).sum(axis=0), 1.0))
    return Propagation(times, states, coeffs)


def propagate_expm(liou: SuperOp, rho0: Operator, times) -> Propagation:
    """Matrix-exponential propagation; valid at exceptional points too."""
    times = np.asarray(times, dtype=float)
    v0 = vectorize(rho0)
    d = liou.dim
    states = np.zeros((times.size, d, d), dtype=complex)
    steps = np.diff(times)
    uniform = times.size >= 2 and np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15)
    if uniform:
        start = scipy.linalg.expm(liou.matrix * times[0]) if abs(times[0]) > 0 else None
        step = scipy.linalg.expm(liou.matrix * steps[0])
        v = v0 if start is None else start @ v0
        states[0] = v.reshape(d, d)
        for k in range(1, times.size):
            v = step @ v
            states[k] = v.reshape(d, d)
    else:
        for k, t in enumerate(times):
            states[k] = (scipy.linalg.expm(liou.matrix * t) @ v0).reshape(d, d)
    if is_trace_preserving(liou) and _is_density(rho0):
        _validate_density_track(states, times)
    return Propagation(times, states)


def ep_decay_fit(times, signal, lambda_ep: complex) -> dict:
    """Least-squares fit of (alpha + beta t) exp(lambda_EP t) to a signal.

    Returns alpha, beta, the fit residual, and the R^2 of the
    polynomial-prefactor model versus the pure-exponential restriction;
    a positive r2_poly - r2_pure gap is the EP signature.  Requires at
    least 20 samples spanning three decay times of Re(lambda_EP).
    """
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=complex)
    if times.size != signal.size:
        raise ValueError("times and signal must have the same length")
    span = times.max() - times.min()
    if times.size < 20 or span * abs(lambda_ep.real) < 3:
        raise ValueError("degenerate sampling: need >= 20 points over >= 3 decay times")
    basis = np.exp(lambda_ep * times)
    design = np.stack([basis, times * basis], axis=1)
    coef, *_ = np.linalg.lstsq(design, signal, rcond=None)
    fit = design @ coef
    ss_tot = float(np.sum(np.abs(signal - signal.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("degenerate sampling: constant signal")
    resid_poly = float(np.sum(np.abs(signal - fit) ** 2))
    coef0, *_ = np.linalg.lstsq(design[:, :1], signal, rcond=None)
    resid_pure = float(np.sum(np.abs(signal - design[:, :1] @ coef0) ** 2))
    return {
        "alpha": complex(coef[0]),
        "beta": complex(coef[1]),
        "residual": np.sqrt(resid_poly),
        "r2_poly": 1.0 - resid_poly / ss_tot,
        "r2_pure": 1.0 - resid_pure / ss_tot,
    }


# ---------------------------------------------------------------------------
# counting-trajectory Monte Carlo
# ---------------------------------------------------------------------------

# uniforms drawn per generator call; each trajectory's stream is
# sequential, so the chunk size never changes the draws
_CHUNK = 512


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Counting-unraveling ensemble on a sample-time grid.

    trajectory_states[r, k] is the normalized wave function of
    trajectory r at times[k]; jump_records[r] lists (time, channel)
    events.  no_jump_states / survival hold the deterministic no-jump
    branch and its accumulated no-click probability.  Per-trajectory
    randomness comes from numpy Generators seeded with
    SeedSequence((seed, trajectory_index)), so reruns with the same
    seed are bit-identical and trajectories are independent.
    """

    seed: int
    n_traj: int
    dt: float
    times: np.ndarray
    trajectory_states: np.ndarray
    jump_records: tuple[tuple[tuple[float, int], ...], ...]
    no_jump_states: np.ndarray
    survival: np.ndarray

    @property
    def ensemble_average(self) -> np.ndarray:
        """Mean density matrix per sample time, shape (n_times, D, D)."""
        return np.einsum("rki,rkj->kij",
                         self.trajectory_states,
                         self.trajectory_states.conj()) / self.n_traj

    def observable_stats(self, op: Operator) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and standard error of <op> per sample time."""
        vals = np.real(np.einsum("rki,ij,rkj->rk",
                                 self.trajectory_states.conj(), op.matrix,
                                 self.trajectory_states))
        mean = vals.mean(axis=0)
        stderr = vals.std(axis=0, ddof=1) / np.sqrt(self.n_traj)
        return mean, stderr

    def no_jump_density(self) -> np.ndarray:
        """Normalized conditional density matrices of the no-jump branch."""
        return np.einsum("ki,kj->kij", self.no_jump_states, self.no_jump_states.conj())


def trajectories(model: LindbladModel, psi0, n_traj: int, dt: float,
                 t_max: float, seed: int, n_samples: int = 51) -> TrajectoryEnsemble:
    """Counting-trajectory Monte Carlo of a Lindblad model.

    Per step the no-jump branch applies the exact propagator
    exp(-i dt H_eff) and renormalizes, so its accuracy does not depend
    on dt * ||H_eff||; channel mu fires with probability
    dt <psi|Gamma_mu^dag Gamma_mu|psi> (first order in dt), selected
    proportionally to the channel weights from a single uniform draw per
    step.  dt must satisfy dt * max_mu ||Gamma_mu^dag Gamma_mu|| <= 0.05.

    The no-jump branch is one more row of the same stepper whose uniform
    is +inf, so it never jumps; its survival is the product of its squared
    norms before each renormalization, exact for any dt.
    """
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    d = model.dim
    if psi0.size != d:
        raise ValueError(f"psi0 has length {psi0.size}, expected {d}")
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1) > 1e-9:
        raise ValueError("psi0 must be normalized")
    psi0 = psi0 / nrm
    gammas = model.folded_jump_matrices()
    if not gammas:
        gammas = [np.zeros((d, d), dtype=complex)]
    rate_scale = max(np.linalg.norm(g.conj().T @ g, 2) for g in gammas)
    if rate_scale > 0 and dt * rate_scale > 0.05:
        raise ValueError(
            f"dt too large for the fastest channel: dt * max rate = "
            f"{dt * rate_scale:.3g} > 0.05; use dt <= {0.05 / rate_scale:.3g}")

    n_steps = int(round(t_max / dt))
    sample_idx = np.unique(np.linspace(0, n_steps, min(n_samples, n_steps + 1)).astype(int))
    times = sample_idx * dt

    heff = effective_hamiltonian(model).matrix
    m0t = scipy.linalg.expm(-1j * dt * heff).T.copy()
    gts = [g.T.copy() for g in gammas]
    n_ch = len(gts)

    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, r))))
            for r in range(n_traj)]

    # rows 0..n_traj-1 are the trajectories, row n_traj the no-jump branch
    states = np.tile(psi0, (n_traj + 1, 1))
    records: list[list[tuple[float, int]]] = [[] for _ in range(n_traj)]
    samples = np.zeros((n_traj + 1, times.size, d), dtype=complex)
    survival = np.zeros(times.size)
    surv = 1.0
    sample_pos = {int(s): k for k, s in enumerate(sample_idx)}
    if 0 in sample_pos:
        samples[:, sample_pos[0]] = states
        survival[sample_pos[0]] = surv

    uniforms = np.full((n_traj + 1, min(_CHUNK, max(n_steps, 1))), np.inf)
    step = 0
    while step < n_steps:
        chunk = min(_CHUNK, n_steps - step)
        for r in range(n_traj):
            uniforms[r, :chunk] = rngs[r].random(chunk)
        for s in range(chunk):
            u = uniforms[:, s]
            jumped = [states @ gt for gt in gts]
            probs = np.stack(
                [dt * np.einsum("ri,ri->r", jp.conj(), jp).real for jp in jumped],
                axis=1)
            cums = np.cumsum(probs, axis=1)
            do_jump = u < cums[:, -1]
            # one uniform per step drives both decisions: conditioned on a
            # jump, the channel is picked proportionally to its weight
            channel = np.argmax(cums > u[:, None], axis=1)
            new = states @ m0t
            for mu in range(n_ch):
                sel = do_jump & (channel == mu)
                if sel.any():
                    new[sel] = jumped[mu][sel]
            norms = np.linalg.norm(new, axis=1)
            surv *= norms[n_traj] ** 2
            new /= norms[:, None]
            states = new
            t_now = (step + s + 1) * dt
            for r in np.flatnonzero(do_jump):
                records[r].append((t_now, int(channel[r])))
            pos = sample_pos.get(step + s + 1)
            if pos is not None:
                samples[:, pos] = states
                survival[pos] = surv
        step += chunk

    return TrajectoryEnsemble(
        seed=int(seed), n_traj=int(n_traj), dt=float(dt), times=times,
        trajectory_states=samples[:n_traj],
        jump_records=tuple(tuple(r) for r in records),
        no_jump_states=samples[n_traj], survival=survival,
    )
