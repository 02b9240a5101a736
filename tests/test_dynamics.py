import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from lioueps.errors import SpectralError
from lioueps.ops_core import Operator, build_qubit_ops, qubit_space
from lioueps.superop import (
    LindbladModel,
    assemble_liouvillian,
    assemble_liouvillian_no_jumps,
)
from lioueps.spectral import analyze_liouvillian
from lioueps import dynamics
from lioueps.dynamics import (
    _Draws,
    ep_decay_fit,
    propagate_expm,
    propagate_modes,
    trajectories,
)
from lioueps.models import example2, example3, get_family
from conftest import random_lindblad_model

Q = build_qubit_ops()


def philox_stream(seed, r):
    """numpy's generator for the uniforms of trajectory r."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, r], dtype=np.uint64)))


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


class TestPropagation:
    def test_steady_state_is_constant(self):
        liou = assemble_liouvillian(example2(1.0, 1.0))
        spec = analyze_liouvillian(liou)
        times = np.linspace(0.0, 8.0, 17)
        prop = propagate_modes(spec, spec.steady_state, times)
        for state in prop.states:
            assert np.abs(state - spec.steady_state.matrix).max() <= 1e-10

    def test_eigenmatrix_scales_as_pure_exponential(self):
        liou = assemble_liouvillian(example2(1.0, 1.0))
        spec = analyze_liouvillian(liou)
        # lambda_1 branch is Hermitian after canonicalization
        rho1 = spec.right(1)
        times = np.linspace(0.0, 3.0, 7)
        prop = propagate_modes(spec, rho1, times)
        for t, state in zip(times, prop.states):
            assert np.abs(state - np.exp(spec.eigenvalues[1] * t) * rho1.matrix).max() <= 1e-10

    def test_modes_match_expm_on_example2(self):
        model = example2(1.0, 1.0)
        liou = assemble_liouvillian(model)
        spec = analyze_liouvillian(liou)
        rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))
        times = np.linspace(0.0, 10.0, 41)
        a = propagate_modes(spec, rho0, times)
        b = propagate_expm(liou, rho0, times)
        assert np.abs(a.states - b.states).max() <= 1e-8

    def test_modes_match_expm_on_random_models(self, rng):
        for _ in range(20):
            model = random_lindblad_model(rng, max_dim=6)
            liou = assemble_liouvillian(model)
            spec = analyze_liouvillian(liou)
            d = model.dim
            rho0 = Operator(model.space, np.eye(d) / d)
            times = np.linspace(0.0, 2.0, 9)
            a = propagate_modes(spec, rho0, times)
            b = propagate_expm(liou, rho0, times)
            assert np.abs(a.states - b.states).max() <= 1e-8
            assert np.abs(a.traces() - 1).max() <= 1e-10
            assert np.abs(b.traces() - 1).max() <= 1e-10

    def test_expm_identity_at_time_zero(self):
        liou = assemble_liouvillian(example2(1.0, 0.5))
        rho0 = Operator(qubit_space(), np.array([[0.7, 0.1j], [-0.1j, 0.3]]))
        prop = propagate_expm(liou, rho0, [0.0])
        assert_allclose(prop.states[0], rho0.matrix, atol=1e-14)

    def test_unitary_purity_conserved(self):
        h = Operator(qubit_space(), 0.9 * Q["sigma_x"].matrix)
        liou = assemble_liouvillian(LindbladModel(h))
        rho0 = Operator(qubit_space(), np.diag([1.0, 0.0]))
        prop = propagate_expm(liou, rho0, np.linspace(0.0, 5.0, 11))
        assert np.abs(prop.purities() - 1.0).max() <= 1e-10

    def test_modes_refuse_at_ep_where_expm_works(self):
        model = example2(1.0, 4.0)
        liou = assemble_liouvillian(model)
        spec = analyze_liouvillian(liou)
        rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))
        times = np.linspace(0.0, 2.0, 11)
        with pytest.raises(SpectralError, match="propagate_expm"):
            propagate_modes(spec, rho0, times)
        prop = propagate_expm(liou, rho0, times)
        assert np.abs(prop.traces() - 1).max() <= 1e-10

    def test_modes_accept_large_cancelling_weights(self):
        # near the example3 EP the mode weights reach 4e3 and cancel to a
        # density matrix with a 3.5e-10 anti-Hermitian part: the bounds
        # scale with sum_i |c_i|, so this correct expansion is not refused
        model = example3(1.0, 0.1, 1.0, 0.5, levels=4)
        liou = assemble_liouvillian(model)
        rho0 = np.zeros((model.dim, model.dim))
        rho0[-1, -1] = 1.0
        rho0 = Operator(model.space, rho0)
        times = np.linspace(0.0, 3.0, 31)
        a = propagate_modes(analyze_liouvillian(liou), rho0, times)
        b = propagate_expm(liou, rho0, times)
        assert np.abs(a.mode_coefficients[:, 0]).max() > 1e3
        assert np.abs(a.states - b.states).max() <= 1e-8

    def test_modes_refuse_a_corrupted_spectrum(self):
        liou = assemble_liouvillian(example2(1.0, 1.0))
        spec = analyze_liouvillian(liou)
        rho0 = Operator(qubit_space(), np.array([[0.5, 0.25], [0.25, 0.5]]))
        times = np.linspace(0.0, 2.0, 5)
        propagate_modes(spec, rho0, times)
        # the mode at -1/2 has a Hermitian eigenmatrix and carries weight
        # in this rho0; rotated by i it makes every state non-Hermitian
        k = int(np.argmin(np.abs(spec.eigenvalues + 0.5)))
        right = spec.vectors.copy()
        right[:, k] = 1j * right[:, k]
        bad = dataclasses.replace(spec, blocks=right)
        assert np.array_equal(bad.right_mats[k], 1j * spec.right_mats[k])
        with pytest.raises(SpectralError, match="Hermiticity violated"):
            propagate_modes(bad, rho0, times)

    def test_no_jump_generator_loses_trace_monotonically(self):
        model = example2(1.0, 1.0)
        liou_nj = assemble_liouvillian_no_jumps(model)
        rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))
        prop = propagate_expm(liou_nj, rho0, np.linspace(0.0, 6.0, 25))
        traces = prop.traces().real
        assert np.all(np.diff(traces) <= 1e-12)
        assert traces[-1] < traces[0]

    def test_hermiticity_preserved_along_propagation(self):
        liou = assemble_liouvillian(example2(1.0, 1.3))
        rho0 = Operator(qubit_space(), np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]))
        prop = propagate_expm(liou, rho0, np.linspace(0.0, 4.0, 21))
        for state in prop.states:
            assert np.abs(state - state.conj().T).max() <= 1e-10

    def test_nonuniform_time_grid(self):
        liou = assemble_liouvillian(example2(1.0, 0.7))
        rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))
        times = np.array([0.0, 0.1, 0.5, 2.0])
        a = propagate_expm(liou, rho0, times)
        spec = analyze_liouvillian(liou)
        b = propagate_modes(spec, rho0, times)
        assert np.abs(a.states - b.states).max() <= 1e-9


class TestEpDecayFit:
    def test_pure_exponential_has_no_polynomial_part(self, rng):
        lam = -1.5 + 0.8j
        times = np.linspace(0.0, 4.0, 60)
        signal = 2.3 * np.exp(lam * times)
        fit = ep_decay_fit(times, signal, lam)
        assert abs(fit["beta"]) <= 1e-10
        assert fit["alpha"] == pytest.approx(2.3, abs=1e-10)
        assert fit["r2_poly"] - fit["r2_pure"] <= 1e-10

    def test_recovers_linear_prefactor(self):
        lam = -2.0 + 0.0j
        times = np.linspace(0.0, 3.0, 50)
        signal = (0.0 + 1.7 * times) * np.exp(lam * times)
        fit = ep_decay_fit(times, signal, lam)
        assert abs(fit["alpha"]) <= 1e-10
        assert abs(fit["beta"] - 1.7) <= 1.7e-6
        assert fit["r2_poly"] > fit["r2_pure"]

    def test_ep_signature_on_example2(self):
        model = example2(1.0, 4.0)
        liou = assemble_liouvillian(model)
        rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))
        times = np.linspace(0.0, 2.0, 60)
        prop = propagate_expm(liou, rho0, times)
        sz = Q["sigma_z"]
        spec = analyze_liouvillian(liou)
        signal = prop.expectation(sz) - np.trace(sz.matrix @ spec.steady_state.matrix)
        fit = ep_decay_fit(times, signal, -3.0 + 0j)
        assert abs(fit["beta"]) > 0.1
        assert fit["r2_poly"] - fit["r2_pure"] > 1e-3

    def test_degenerate_sampling_rejected(self):
        times = np.linspace(0.0, 0.1, 60)
        signal = np.exp(-times)
        with pytest.raises(ValueError, match="degenerate sampling"):
            ep_decay_fit(times, signal, -1.0 + 0j)
        with pytest.raises(ValueError, match="degenerate sampling"):
            ep_decay_fit(np.linspace(0, 10, 10), np.exp(-np.linspace(0, 10, 10)), -1.0)


class TestTrajectories:
    def test_closed_system_reproduces_schroedinger_evolution(self):
        h = Operator(qubit_space(), 0.5 * Q["sigma_x"].matrix)
        model = LindbladModel(h, ((0.0, Q["sigma_minus"]),))
        ens = trajectories(model, [0, 1], n_traj=3, dt=1e-3, t_max=2.0, seed=1)
        assert all(len(r) == 0 for r in ens.jump_records)
        liou = assemble_liouvillian(model)
        prop = propagate_expm(liou, Operator(qubit_space(), np.diag([0.0, 1.0])), ens.times)
        for k in range(len(ens.times)):
            rho_traj = np.outer(ens.trajectory_states[0, k],
                                ens.trajectory_states[0, k].conj())
            assert trace_distance(rho_traj, prop.states[k]) <= 1e-3
        assert_allclose(ens.survival, np.ones_like(ens.survival), atol=1e-12)

    def test_seed_determinism_is_bitwise(self):
        model = example2(1.0, 1.0)
        a = trajectories(model, [0, 1], n_traj=50, dt=1e-3, t_max=1.0, seed=42)
        b = trajectories(model, [0, 1], n_traj=50, dt=1e-3, t_max=1.0, seed=42)
        assert a.jump_records == b.jump_records
        assert np.array_equal(a.trajectory_states, b.trajectory_states)
        c = trajectories(model, [0, 1], n_traj=50, dt=1e-3, t_max=1.0, seed=43)
        assert c.jump_records != a.jump_records

    def test_ensembles_of_one_run_compare_by_identity(self):
        # field-wise == would reduce the state arrays inside a tuple and raise
        model = get_family("example2").build()
        a, b = (trajectories(model, [0, 1], n_traj=5, dt=1e-2, t_max=0.5, seed=3)
                for _ in range(2))
        assert a == a and a != b and not a == b
        assert np.array_equal(a.trajectory_states, b.trajectory_states)

    def test_ensemble_matches_lindblad_solution(self):
        model = example2(1.0, 1.0)
        ens = trajectories(model, [0, 1], n_traj=400, dt=1e-3, t_max=3.0, seed=5,
                           n_samples=13)
        liou = assemble_liouvillian(model)
        prop = propagate_expm(liou, Operator(qubit_space(), np.diag([0.0, 1.0])),
                              ens.times)
        mean, se = ens.observable_stats(Q["sigma_z"])
        ref = prop.expectation(Q["sigma_z"]).real
        assert np.all(np.abs(mean[1:] - ref[1:]) <= 5 * se[1:])

    def test_no_jump_branch_matches_normalized_no_jump_generator(self):
        model = example2(1.0, 1.0)
        ens = trajectories(model, [0, 1], n_traj=1, dt=1e-3, t_max=5.0, seed=2,
                           n_samples=11)
        liou_nj = assemble_liouvillian_no_jumps(model)
        prop = propagate_expm(liou_nj, Operator(qubit_space(), np.diag([0.0, 1.0])),
                              ens.times)
        nj = ens.no_jump_density()
        for k in range(len(ens.times)):
            tr = np.trace(prop.states[k]).real
            assert trace_distance(nj[k], prop.states[k] / tr) <= 1e-3
            # the survival probability tracks the generator's trace loss
            assert abs(ens.survival[k] - tr) <= 2e-3

    def test_no_jump_branch_exact_for_fast_hamiltonian(self):
        # dt * ||H_eff|| = 0.1: a first-order step drifts to a trace
        # distance near 1 by t = 5, the exact step stays at rounding level
        model = example2(omega_x=200.0, gamma_minus=1e-3)
        ens = trajectories(model, [0, 1], n_traj=1, dt=1e-3, t_max=5.0, seed=0,
                           n_samples=6)
        liou_nj = assemble_liouvillian_no_jumps(model)
        prop = propagate_expm(liou_nj, Operator(qubit_space(), np.diag([0.0, 1.0])),
                              ens.times)
        nj = ens.no_jump_density()
        for k in range(len(ens.times)):
            ref = prop.states[k] / np.trace(prop.states[k])
            assert trace_distance(nj[k], ref) <= 1e-10

    def test_survival_is_the_no_jump_trace(self):
        # survival must be Tr expm(L_nj t) rho0 whatever dt is; a product of
        # first-order no-click probabilities is about 1% off here at t = 5
        model = example2(1.0, 1.0)
        ens = trajectories(model, [0, 1], n_traj=1, dt=1e-2, t_max=5.0, seed=0,
                           n_samples=11)
        prop = propagate_expm(assemble_liouvillian_no_jumps(model),
                              Operator(qubit_space(), np.diag([0.0, 1.0])), ens.times)
        trace = np.array([np.trace(s).real for s in prop.states])
        assert_allclose(ens.survival, trace, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("name, params", [
        ("example1", {}), ("example2", {}), ("example3", {"levels": 3})])
    def test_jump_free_rows_are_the_no_jump_record(self, name, params):
        # all rows are stepped by one matrix product, so on a given platform
        # and BLAS a row that has not jumped equals the no-jump row exactly
        model = get_family(name, **params).build()
        psi0 = np.zeros(model.dim)
        psi0[-1] = 1.0
        ens = trajectories(model, psi0, n_traj=300, dt=1e-3, t_max=2.0, seed=4)
        first_jump = [rec[0][0] if rec else np.inf for rec in ens.jump_records]
        checked = 0
        for r, t_jump in enumerate(first_jump):
            for k in np.flatnonzero(ens.times < t_jump):
                assert np.array_equal(ens.trajectory_states[r, k], ens.no_jump_states[k])
                checked += 1
        assert checked > ens.times.size
        # the no-jump record does not depend on how many trajectories ran; a
        # BLAS may round a row differently with the batch size, hence atol
        single = trajectories(model, psi0, n_traj=1, dt=1e-3, t_max=2.0, seed=4)
        np.testing.assert_allclose(single.no_jump_states, ens.no_jump_states,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(single.survival, ens.survival, rtol=0, atol=1e-14)

    def test_survival_probability_non_increasing(self):
        model = example2(1.0, 2.0)
        ens = trajectories(model, [0, 1], n_traj=1, dt=1e-3, t_max=4.0, seed=3)
        assert np.all(np.diff(ens.survival) <= 0 + 1e-15)

    def test_states_stay_normalized(self):
        model = example2(1.0, 1.5)
        ens = trajectories(model, [0, 1], n_traj=20, dt=1e-3, t_max=1.0, seed=9)
        norms = np.linalg.norm(ens.trajectory_states, axis=2)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_dt_guard(self):
        model = example2(1.0, 100.0)
        with pytest.raises(ValueError, match="use dt <="):
            trajectories(model, [0, 1], n_traj=1, dt=1e-2, t_max=0.1, seed=0)

    def test_psi0_validation(self):
        model = example2(1.0, 1.0)
        with pytest.raises(ValueError, match="normalized"):
            trajectories(model, [0.5, 0.1], n_traj=1, dt=1e-3, t_max=0.1, seed=0)
        with pytest.raises(ValueError, match="length"):
            trajectories(model, [1, 0, 0], n_traj=1, dt=1e-3, t_max=0.1, seed=0)

    def test_nan_psi0_is_refused(self):
        # abs(nan - 1) > tol is False, so a NaN state passed the norm check
        with pytest.raises(ValueError, match="normalized"):
            trajectories(example2(1.0, 1.0), [np.nan, 1], n_traj=1, dt=1e-3, t_max=0.1,
                         seed=0)

    def test_channel_statistics_proportional_to_rates(self):
        # two competing channels with 4:1 rates; jump counts follow suit
        q = Q
        h = Operator(qubit_space(), 0.5 * q["sigma_x"].matrix)
        model = LindbladModel(h, ((2.0, q["sigma_z"]), (0.5, q["sigma_z"])))
        ens = trajectories(model, [0, 1], n_traj=200, dt=5e-3, t_max=2.0, seed=13)
        counts = np.zeros(2)
        for rec in ens.jump_records:
            for _, mu in rec:
                counts[mu] += 1
        assert counts.sum() > 200
        ratio = counts[0] / counts[1]
        assert 3.0 <= ratio <= 5.3

    def test_jump_count_at_high_rate(self):
        # sigma_z^dag sigma_z = 1, so the waiting times are exponential with
        # rate 49 whatever the state: the count per trajectory is Poisson
        # with mean 49 t_max.  dt * rate = 0.049; a jump placed at the end of
        # its dt cell instead of the midpoint lowers the mean by 2.4%,
        # about 7 standard errors here
        h = Operator(qubit_space(), 0.5 * Q["sigma_x"].matrix)
        model = LindbladModel(h, ((49.0, Q["sigma_z"]),))
        ens = trajectories(model, [0, 1], n_traj=400, dt=1e-3, t_max=5.0, seed=21,
                           n_samples=6)
        counts = np.array([len(rec) for rec in ens.jump_records])
        stderr = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 49.0 * 5.0) <= 5 * stderr

    def test_pure_decay_jumps_where_the_first_draw_says(self):
        # H = 0, Gamma = sqrt(gamma) sigma_-: from the excited state the
        # no-jump norm^2 is exp(-gamma t), so trajectory r jumps in the first
        # dt cell n with exp(-gamma n dt) <= u_r, its stream's first uniform,
        # and the ground state never jumps again
        gamma, dt, t_max, seed = 1.3, 1e-3, 3.0, 8
        h = Operator(qubit_space(), np.zeros((2, 2)))
        model = LindbladModel(h, ((gamma, Q["sigma_minus"]),))
        ens = trajectories(model, [0, 1], n_traj=200, dt=dt, t_max=t_max, seed=seed,
                           n_samples=7)
        jumped = 0
        for r, rec in enumerate(ens.jump_records):
            u = philox_stream(seed, r).random()
            # the first n with exp(-gamma n dt) <= u
            n = int(np.ceil(-np.log(u) / (gamma * dt)))
            if n > round(t_max / dt):
                assert rec == ()
                continue
            assert len(rec) == 1 and rec[0][1] == 0
            assert (n - 1) * dt < rec[0][0] < n * dt
            jumped += 1
        assert jumped > 150

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_word_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            trajectories(example2(1.0, 1.0), [0, 1], n_traj=1, dt=1e-3, t_max=0.1,
                         seed=seed)


class TestDrawStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
    def test_rows_read_numpys_philox_streams(self, seed):
        # irregular row subsets put each row's refills at different take calls
        rows = np.array([0, 1, 1999])
        draws = _Draws(seed, 2000)
        got = {r: [] for r in rows.tolist()}
        pick = np.random.default_rng(seed % 2**32)
        while min(map(len, got.values())) < 40:
            sub = rows[pick.random(rows.size) < 0.6]
            for r, u in zip(sub.tolist(), draws.take(sub)):
                got[r].append(u)
        assert len({len(v) for v in got.values()}) > 1
        for r, us in got.items():
            assert np.array_equal(us, philox_stream(seed, r).random(len(us)))

    def test_fill_depth_never_changes_a_draw(self, monkeypatch):
        # dephasing at rate 20: every row jumps ~40 times, reading two
        # uniforms per jump, so it refills several times at every depth
        h = Operator(qubit_space(), 0.5 * Q["sigma_x"].matrix)
        model = LindbladModel(h, ((20.0, Q["sigma_z"]),))

        def run():
            return trajectories(model, [0, 1], n_traj=30, dt=1e-3, t_max=2.0, seed=5,
                                n_samples=5)

        ref = run()
        assert min(map(len, ref.jump_records)) >= 20
        for depth in (1, 3, 8):
            monkeypatch.setattr(dynamics, "_FILL", depth)
            ens = run()
            assert ens.jump_records == ref.jump_records
            assert np.array_equal(ens.trajectory_states, ref.trajectory_states)

    def test_trajectories_build_no_per_row_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-row generator built")

        for name in ("SeedSequence", "PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, refuse)
        ens = trajectories(example2(1.0, 3.0), [0, 1], n_traj=300, dt=1e-3, t_max=1.0,
                           seed=2)
        assert sum(map(len, ens.jump_records)) > 100


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_trajectory_invariants_on_random_models(seed):
    # the stepper never calls the assembled generators: L checks the
    # ensemble mean, L' the no-jump survival
    rng = np.random.default_rng(seed)
    model = random_lindblad_model(rng, max_dim=3)
    d = model.dim
    dt = 0.005 / max(np.linalg.norm(g.conj().T @ g, 2) for g in model.folded_jump_matrices())
    psi0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi0 /= np.linalg.norm(psi0)
    ens = trajectories(model, psi0, n_traj=300, dt=dt, t_max=1200 * dt, seed=seed)
    rho0 = Operator(model.space, np.outer(psi0, psi0.conj()))
    # survival is Tr exp(L't) rho0 and never increases
    lost = propagate_expm(assemble_liouvillian_no_jumps(model), rho0, ens.times).traces()
    assert np.abs(ens.survival - lost).max() <= 1e-10
    assert np.all(np.diff(ens.survival) <= 0)
    # every population's ensemble mean is within 5 standard errors of
    # exp(Lt) rho0; a standard error below one trajectory's weight means only
    # a handful have jumped, where the normal approximation fails
    exact = propagate_expm(assemble_liouvillian(model), rho0, ens.times).states
    for k in range(d):
        mean, stderr = ens.observable_stats(Operator(model.space, np.diag(np.eye(d)[k])))
        assert np.all(np.abs(mean - exact[:, k, k].real) <= 5 * np.maximum(stderr, 1 / ens.n_traj))
