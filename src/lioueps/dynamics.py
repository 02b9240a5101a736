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

trajectories implements the counting unraveling with the waiting-time
rule: between jumps the state evolves under the effective Hamiltonian,
psi(t) = exp(-i t H_eff) psi, whose norm^2 falls at the rate
<psi|sum Gamma^dag Gamma|psi>; the trajectory jumps when it reaches a
uniform u drawn beforehand, collapsing to Gamma psi / |Gamma psi| for a
channel picked by a second uniform with weight |Gamma psi|^2, and then
draws its next u.  Rows advance a block of dt steps per matrix product;
dt is the jump-time resolution, each jump being placed at the midpoint
of the dt cell in which the norm^2 reached u.  Averaging all
trajectories recovers the full generator; keeping only the no-jump
record realizes the no-jump generator, with the survival probability
equal to its trace loss.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .csvrows import _mulhilo
from .errors import SpectralError
from .ops_core import Operator
from .superop import (
    LindbladModel,
    SuperOp,
    effective_hamiltonian,
    is_trace_preserving,
    vectorize,
)

if TYPE_CHECKING:  # an annotation only: dynamics runs without spectral
    from .spectral import Spectrum


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
    states = np.einsum("ik,ijl->kjl", coeffs, spectrum.right_mats)
    if _is_density(rho0):
        # unit-norm rho_i: rounding scales with sum_i |c_i exp(lambda_i t)|
        _validate_density_track(states, times, np.maximum(np.abs(coeffs).sum(axis=0), 1.0))
    return Propagation(times, states, coeffs)


def propagate_expm(liou: SuperOp, rho0: Operator, times) -> Propagation:
    """Matrix-exponential propagation; valid at exceptional points too."""
    import scipy.linalg
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

# longest run of dt steps advanced by one matrix product: blocks are the
# sample intervals, split every _BLOCK steps, and the stack of propagator
# powers holds _BLOCK + 1 matrices
_BLOCK = 128
# Philox4x64-10 blocks (4 uniforms each) computed per row when its buffer
# runs out; the stream is counter-based, so the depth never changes a draw
_FILL = 4
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # Weyl key increments
# bytes of trajectory states that TrajectoryEnsemble.statistics reads per
# slab; each slab's temporaries are a few times that
_SLAB_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Counting-unraveling ensemble on a sample-time grid.

    trajectory_states[r, k] is the normalized wave function of
    trajectory r at times[k]; jump_records[r] lists (time, channel)
    events in time order, each time the midpoint of a dt cell or, for a
    jump right after another, a multiple of dt.  no_jump_states /
    survival hold the deterministic no-jump branch and its accumulated
    no-click probability.  Trajectory r reads the uniforms of numpy's
    Generator(Philox(key=[seed, r])).random() in the order waiting
    uniform, then channel uniform per jump, then the next waiting
    uniform; reruns with the same seed are bit-identical and trajectories
    are independent.

    jump_events holds the arrays (rows, half-step index of the jump time,
    channel) in the order the stepper found them; jump_records groups them
    per trajectory on first read and keeps the tuple, so a caller that
    never reads it never pays for it.

    statistics() reads the ensemble means in one pass over the states, a
    slab of trajectories at a time, so no (n_traj, n_times, D, D) stack
    of outer products is ever held; observable_stats is a read of it, and
    ensemble_average takes its populations as the diagonal.  Ensembles
    compare by identity: a field-wise == would ask numpy for the truth of
    an array.
    """

    seed: int
    n_traj: int
    dt: float
    times: np.ndarray
    trajectory_states: np.ndarray
    no_jump_states: np.ndarray
    survival: np.ndarray
    jump_events: tuple = field(repr=False)

    @cached_property
    def jump_records(self) -> tuple[tuple[tuple[float, int], ...], ...]:
        return _group_records(self.jump_events, self.n_traj, self.dt)

    def statistics(self, ops=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean populations, and the ensemble mean and standard error of
        each Re <psi|op|psi>, per sample time.

        Returns populations of shape (n_times, D), the mean of |psi_i|^2,
        and means and stderrs of shape (len(ops), n_times).  With psi read
        as the real vector v = (Re psi, Im psi), Re <psi|O|psi> = v^T M v
        for the real 2D x 2D matrix M = [[Re O, -Im O], [Im O, Re O]]; a
        slab of trajectories at a time, v is laid out as columns and each
        op takes one product M v over the slab, so its values do not
        depend on which other operators were asked for.
        """
        states = self.trajectory_states
        n, t, d = states.shape
        mats = [np.block([[op.matrix.real, -op.matrix.imag], [op.matrix.imag, op.matrix.real]])
                for op in ops]
        pops = np.zeros((d, t))
        vals = np.empty((len(mats), n, t))
        step = max(1, _SLAB_BYTES // (16 * t * d))
        for a in range(0, n, step):
            rows = min(step, n - a)
            pairs = np.ascontiguousarray(states[a:a + rows], dtype=complex).view(float)
            v = pairs.reshape(rows * t, d, 2).transpose(2, 1, 0).reshape(2 * d, rows * t)
            sq = v ** 2
            pops += (sq[:d] + sq[d:]).reshape(d, rows, t).sum(axis=1)
            for val, m in zip(vals, mats):
                val[a:a + rows] = ((m @ v) * v).sum(axis=0).reshape(rows, t)
        means = np.array([val.mean(axis=0) for val in vals]).reshape(-1, t)
        stderrs = np.array([val.std(axis=0, ddof=1) for val in vals]).reshape(-1, t) / np.sqrt(n)
        return pops.T / n, means, stderrs

    @property
    def ensemble_average(self) -> np.ndarray:
        """Mean density matrix per sample time, shape (n_times, D, D),
        rho_ij = E[psi_i psi_j^*]: one product per sample time, with the
        populations of statistics() as its diagonal."""
        states = self.trajectory_states
        rho = np.stack([x.T @ x.conj() for x in states.transpose(1, 0, 2)]) / self.n_traj
        diag = np.arange(states.shape[2])
        rho[:, diag, diag] = self.statistics()[0]
        return rho

    def observable_stats(self, op: Operator) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and standard error of Re <op> per sample time."""
        _, means, stderrs = self.statistics((op,))
        return means[0], stderrs[0]

    def no_jump_density(self) -> np.ndarray:
        """Normalized conditional density matrices of the no-jump branch."""
        return np.einsum("ki,kj->kij", self.no_jump_states, self.no_jump_states.conj())


def _philox_uniforms(seed: int, rows: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Uniforms 4 first[i] .. 4 (first[i] + _FILL) - 1 of the stream of
    trajectory rows[i], shape (len(rows), 4 _FILL).

    The stream of row r is that of numpy's
    Generator(Philox(key=[seed, r])).random(): block b is Philox4x64-10
    of the counter (b + 1, 0, 0, 0) (numpy increments the counter before
    each block) under the key (seed, r), and a uniform is a word's top 53
    bits times 2**-53.
    """
    c0 = (first[:, None] + np.arange(1, _FILL + 1)).astype(np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    row_key = rows.astype(np.uint64)[:, None]
    for rnd in range(10):
        # the key (seed, r) after rnd Weyl increments
        k0 = np.uint64((seed + rnd * _PHILOX_W[0]) % 2**64)
        k1 = row_key + np.uint64(rnd * _PHILOX_W[1] % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(rows), 4 * _FILL)
    return (words >> np.uint64(11)) * 2.0 ** -53


class _Draws:
    """Per-trajectory uniform streams (see _philox_uniforms), read through
    per-row buffers of _FILL blocks.  A take refills the buffers of all its
    exhausted rows in one call; the first take (every trajectory's waiting
    uniform) fills them all."""

    def __init__(self, seed: int, n: int):
        self._seed = seed
        self._buf = np.empty((n, 4 * _FILL))
        self._count = np.zeros(n, dtype=np.int64)  # uniforms read per row

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each trajectory in rows (no repeats)."""
        count = self._count[rows]
        empty = count % (4 * _FILL) == 0
        if empty.any():
            self._buf[rows[empty]] = _philox_uniforms(self._seed, rows[empty], count[empty] // 4)
        self._count[rows] = count + 1
        return self._buf[rows, count % (4 * _FILL)]


def _normalized(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm, and their squared norms before.

    The norms are np.linalg.norm(rows, axis=1) bit for bit.  That sums the
    squared moduli with add.reduce, which adds fewer than 8 entries left to
    right (pairwise blocks only from 8 on) but is slow on so short an axis;
    for rows that short the columns are added here in the same order.  The
    8 is the unrolled block of numpy's pairwise sum; the bits were checked
    against numpy 2.4.6 by tests/test_array_paths.py.
    """
    if rows.shape[1] >= 8:
        nrm = np.linalg.norm(rows, axis=1)
    else:
        sq = (rows.conj() * rows).real
        acc = sq[:, 0].copy()
        for k in range(1, rows.shape[1]):
            acc += sq[:, k]
        nrm = np.sqrt(acc)
    return rows / nrm[:, None], nrm ** 2


def _collapse(phi: np.ndarray, gts: list[np.ndarray], v: np.ndarray):
    """Apply to each row of phi the channel mu that the uniform v picks
    with weight |Gamma_mu phi|^2; returns the normalized rows and mu.
    With one channel v picks channel 0 whatever its value."""
    if len(gts) == 1:
        return _normalized(phi @ gts[0])[0], np.zeros(len(phi), dtype=np.intp)
    cand = np.stack([phi @ gt for gt in gts], axis=1)
    cum = np.cumsum(np.einsum("rcd,rcd->rc", cand.conj(), cand).real, axis=1)
    channel = np.argmax(cum > v[:, None] * cum[:, -1:], axis=1)
    return _normalized(cand[np.arange(len(channel)), channel])[0], channel


class _Propagators(NamedTuple):
    """The no-jump step matrices of a run, all acting on row vectors."""

    powers: np.ndarray  # powers[k] = (exp(-i dt H_eff)^T)^k, k = 0.._BLOCK
    mids: np.ndarray    # mids[k] steps on to the midpoint of the next cell
    half: np.ndarray    # half a step
    gts: list           # the transposed jump matrices Gamma_mu^T
    grams: np.ndarray   # column k: G_k = powers[k] powers[k]^dag as real pairs


def _jump_cells(psi, u, room, prop):
    """For each row, the first cell (k - 1, k], k in 1..room, whose end
    norm^2 |psi powers[k]|^2 reaches u; room when no earlier one does.

    |psi powers[k]|^2 = sum_ij psi_i psi_j^* G_ij with G = G_k Hermitian, so
    one real product of the rows' outer products, read as (re, im) pairs,
    with the columns (Re G, -Im G) of every k gives all the cells at once.
    """
    outer = (psi[:, :, None] * psi[:, None, :].conj()).view(float).reshape(len(psi), -1)
    reached = outer @ prop.grams[:, 1:room.max() + 1] <= u[:, None]
    reached[np.arange(len(psi)), room - 1] = True
    return reached.argmax(axis=1) + 1


def _resolve_jumps(rows, psi, u, g, start, prop, draws, events):
    """Jumps of the trajectories rows inside the block of g steps that
    starts at grid index start.

    psi are their normalized states at the block start and u their
    thresholds, each of which the block-end norm^2 has reached.  Appends
    (rows, half-step index of the jump time, channel) arrays to events and
    returns the normalized states at the block end with the thresholds
    rescaled to them.
    """
    end_states, end_u = np.empty_like(psi), np.empty_like(u)
    pos = np.arange(rows.size)          # where each pending row's results go
    at = np.zeros(rows.size, dtype=int)  # steps into the block
    while pos.size:
        r = rows[pos]
        hi = _jump_cells(psi, u, g - at, prop)
        # the jump sits at the cell midpoint, reached by a half step
        phi, channel = _collapse(_normalized(np.einsum("ri,rij->rj", psi, prop.mids[hi - 1]))[0],
                                 prop.gts, draws.take(r))
        at = at + hi
        events.append((r, 2 * (start + at) - 1, channel))
        u = draws.take(r)
        psi, n2 = _normalized(phi @ prop.half)
        # the new threshold may already be reached at the grid point
        now = np.flatnonzero(n2 <= u)
        if now.size:
            psi[now], channel = _collapse(psi[now], prop.gts, draws.take(r[now]))
            events.append((r[now], 2 * (start + at[now]), channel))
            u[now] = draws.take(r[now])
            n2[now] = 1.0
        u = u / n2
        state, n2 = _normalized(np.einsum("ri,rij->rj", psi, prop.powers[g - at]))
        again = n2 <= u
        done = ~again
        end_states[pos[done]] = state[done]
        end_u[pos[done]] = u[done] / n2[done]
        pos, psi, u, at = pos[again], psi[again], u[again], at[again]
    return end_states, end_u


def trajectories(model: LindbladModel, psi0, n_traj: int, dt: float,
                 t_max: float, seed: int, n_samples: int = 51) -> TrajectoryEnsemble:
    """Counting-trajectory Monte Carlo of a Lindblad model.

    Between jumps a trajectory follows the no-jump propagator
    exp(-i t H_eff), whose norm^2 decays at the rate
    <psi|sum_mu Gamma_mu^dag Gamma_mu|psi>; it jumps when that norm^2 falls
    to a uniform u it drew (the waiting-time rule).  All rows advance a
    block at a time by one product with a precomputed power of
    exp(-i dt H_eff); blocks are the sample intervals, split every _BLOCK
    steps.  At each block end every row is renormalized and its u divided
    by the block's norm^2.  A row whose norm^2 reached u jumped inside the
    block.  The norm^2 after k steps is psi G_k psi^dag with the Gram
    matrix G_k = P_k P_k^dag of the k-th power P_k, all precomputed, so one
    product of the row's outer product with the stacked G_k gives the
    norm^2 at every cell end; the first dt cell that reaches u holds the
    jump, which is placed at the cell midpoint.  A second uniform
    picks channel mu with weight |Gamma_mu psi|^2, the state collapses to
    Gamma_mu psi / |Gamma_mu psi|, and a fresh u is drawn; if the half
    step to the next grid point already reaches it, the next jump happens
    at that grid point.  dt is thus the jump-time resolution, not a step
    of a first-order scheme; it must satisfy
    dt * max_mu ||Gamma_mu^dag Gamma_mu|| <= 0.05.

    The no-jump branch is one more row of the same stepper whose u is -1,
    so it never jumps; its survival is the product of its block norms^2,
    exact for any dt.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:  # the first word of each Philox key
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    d = model.dim
    if psi0.size != d:
        raise ValueError(f"psi0 has length {psi0.size}, expected {d}")
    nrm = np.linalg.norm(psi0)
    if not abs(nrm - 1) <= 1e-9:  # NaN fails too
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
    # block ends: every sample point, the last step (n_samples = 1 samples
    # only t = 0), and every _BLOCK steps in between
    grid = np.union1d(sample_idx, [n_steps]).tolist()
    ends = [e for a, b in zip(grid[:-1], grid[1:]) for e in [*range(a + _BLOCK, b, _BLOCK), b]]

    import scipy.linalg
    heff = effective_hamiltonian(model).matrix
    m0t = scipy.linalg.expm(-1j * dt * heff).T
    half = scipy.linalg.expm(-0.5j * dt * heff).T
    powers = np.empty((min(_BLOCK, n_steps) + 1, d, d), dtype=complex)
    powers[0] = np.eye(d)
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] @ m0t
    grams = powers @ powers.conj().transpose(0, 2, 1)
    grams = np.stack([grams.real, -grams.imag], axis=-1).reshape(len(powers), -1).T.copy()
    prop = _Propagators(powers, powers[:-1] @ half, half, [g.T.copy() for g in gammas], grams)

    draws = _Draws(seed, n_traj)
    # rows 0..n_traj-1 are the trajectories, row n_traj the no-jump branch
    states = np.tile(psi0, (n_traj + 1, 1))
    u = np.append(draws.take(np.arange(n_traj)), -1.0)
    events: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    samples = np.zeros((n_traj + 1, times.size, d), dtype=complex)
    survival = np.zeros(times.size)
    sample_pos = {int(s): k for k, s in enumerate(sample_idx)}
    samples[:, 0] = states
    survival[0] = surv = 1.0

    start = 0
    for end in ends:
        new, n2 = _normalized(states @ powers[end - start])
        jumped = np.flatnonzero(n2 <= u)
        u_jumped = u[jumped]
        u /= n2
        new[jumped], u[jumped] = _resolve_jumps(jumped, states[jumped], u_jumped, end - start,
                                                start, prop, draws, events)
        states = new
        surv *= n2[n_traj]
        pos = sample_pos.get(end)
        if pos is not None:
            samples[:, pos] = states
            survival[pos] = surv
        start = end

    return TrajectoryEnsemble(
        seed=seed, n_traj=int(n_traj), dt=float(dt), times=times,
        trajectory_states=samples[:n_traj],
        no_jump_states=samples[n_traj], survival=survival, jump_events=tuple(events),
    )


def _group_records(events, n_traj: int, dt: float):
    """Per-trajectory (time, channel) tuples, in time order, from the
    event arrays (rows, half-step index, channel) in the order found."""
    if not events:
        return ((),) * n_traj
    rows, halves, channels = (np.concatenate(a) for a in zip(*events))
    # events of one trajectory were found in time order
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(n_traj + 1))
    pairs = list(zip((0.5 * dt * halves[order]).tolist(), channels[order].tolist()))
    return tuple(tuple(pairs[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
