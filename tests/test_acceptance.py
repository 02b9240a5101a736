"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -v -s, or -rP, to see them).  Tolerances are pinned here."""

import time

import numpy as np
import pytest

from lioueps.ops_core import Operator, build_qubit_ops, qubit_space
from lioueps.superop import (
    apply_liouvillian,
    assemble_liouvillian,
    assemble_liouvillian_no_jumps,
    effective_hamiltonian,
    kraus_step,
    vectorize,
)
from lioueps.spectral import analyze_liouvillian, analyze_nhh, check_lemmas
from lioueps.ep_detect import locate_ep
from lioueps.dynamics import ep_decay_fit, propagate_expm, propagate_modes, trajectories
from lioueps.models import (
    example1_closed_form,
    example2,
    example2_closed_form,
    example3,
    example3_block_family,
    example3_mean_field_matrix,
    get_family,
    sigma_z_expectations,
)
from lioueps.spectral import pm_decomposition
from conftest import assert_multiset_close, random_lindblad_model

Q = build_qubit_ops()


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_example1_spectrum_and_leps():
    t0 = time.perf_counter()
    fam = get_family("example1").with_params(omega=1.0, gamma_y=2.0)
    grid = np.linspace(0.0, 4.0, 201)
    worst_spectrum = 0.0
    min_nhh_gap = np.inf
    for gm in (0.0, 1.0):
        fam_gm = fam.with_params(gamma_minus=gm)
        for gx in grid:
            model = fam_gm.build(gx)
            spec = analyze_liouvillian(assemble_liouvillian(model))
            expected = example1_closed_form(1.0, gm, gx, 2.0)["lambdas"]
            actual = list(spec.eigenvalues)
            for want in expected:
                dists = [abs(a - want) for a in actual]
                k = int(np.argmin(dists))
                worst_spectrum = max(worst_spectrum, dists[k])
                actual.pop(k)
            h = np.linalg.eigvals(effective_hamiltonian(model).matrix)
            min_nhh_gap = min(min_nhh_gap, abs(h[0] - h[1]))
    assert worst_spectrum <= 1e-8

    ep_params = []
    ep_overlaps = []
    for gm in (0.0, 1.0):
        lf = fam.with_params(gamma_minus=gm).liouvillian_family()
        for bracket, expected in (((0.5, 1.5), 1.0), ((2.5, 3.5), 3.0)):
            rep = locate_ep(lf, bracket)
            ep_params.append(abs(rep.param_value - expected))
            ep_overlaps.append(rep.overlap_at_ep)
    elapsed = time.perf_counter() - t0
    ok = (worst_spectrum <= 1e-8 and max(ep_params) <= 1e-6
          and min(ep_overlaps) >= 1 - 1e-6 and min_nhh_gap >= 1.0
          and elapsed < 5.0)
    report(1, ok,
           f"closed-form spectrum dev {worst_spectrum:.2e} (<=1e-8); "
           f"LEPs at 1,3 within {max(ep_params):.2e} (<=1e-6); "
           f"overlap >= {min(ep_overlaps):.9f} (>=1-1e-6); "
           f"NHH gap >= {min_nhh_gap:.3f} (>= omega, no HEP); "
           f"runtime {elapsed:.2f}s (<5s)")


def test_criterion_2_example2_eps_and_bifurcations():
    t0 = time.perf_counter()
    fam = get_family("example2").with_params(omega_x=1.0)
    rep_h = locate_ep(fam.nhh_family(), (1.0, 3.0))
    rep_l = locate_ep(fam.liouvillian_family(), (3.0, 5.0))
    hep_err = abs(rep_h.param_value - 2.0)
    lep_err = abs(rep_l.param_value - 4.0)

    worst_rel = 0.0
    for gm in np.linspace(0.25, 6.0, 101):
        spec = analyze_liouvillian(assemble_liouvillian(fam.build(gm)))
        worst_rel = max(worst_rel, abs(spec.eigenvalues[1] + gm / 2) / (gm / 2))

    worst_state = 0.0
    for gm in (4.5, 5.0, 6.0):
        cf = example2_closed_form(1.0, gm)
        for rho_mat, psis in ((cf["rhos"][2], cf["psi2"]), (cf["rhos"][3], cf["psi3"])):
            plus, minus = pm_decomposition(Operator(qubit_space(), rho_mat))
            states = [np.linalg.eigh(part.matrix)[1][:, -1] for part in (plus, minus)]
            for k in range(2):
                best = max(abs(np.vdot(psis[:, k], s)) for s in states)
                worst_state = max(worst_state, 1.0 - best)

    grid = np.linspace(0.0, 6.0, 121)
    curves = sigma_z_expectations(1.0, grid)
    nhh_split = np.abs(curves["nhh"][0] - curves["nhh"][1])
    pm2 = np.sort(curves["pm"][:2], axis=0)
    pm3 = np.sort(curves["pm"][2:], axis=0)
    pm_split = np.abs(pm2 - pm3).max(axis=0)
    double_bifurcation = (
        nhh_split[grid <= 1.9].max() <= 1e-10
        and nhh_split[grid >= 2.1].min() >= 1e-2
        and pm_split[grid <= 3.9].max() <= 1e-8
        and pm_split[grid >= 4.1].min() >= 1e-2)
    elapsed = time.perf_counter() - t0
    ok = (hep_err <= 1e-6 and lep_err <= 1e-6 and worst_rel <= 1e-12
          and worst_state <= 1e-8 and double_bifurcation and elapsed < 5.0)
    report(2, ok,
           f"HEP at 2 within {hep_err:.2e}, LEP at 4 within {lep_err:.2e} (<=1e-6); "
           f"lambda_1 = -gamma/2 rel dev {worst_rel:.2e} (<=1e-12); "
           f"decomposition states dev {worst_state:.2e} (<=1e-8); "
           f"double bifurcation (splits only at 2 resp. 4): {double_bifurcation}; "
           f"runtime {elapsed:.2f}s (<5s)")


def test_criterion_3_example3_block_ladder():
    t0 = time.perf_counter()
    locations = []
    for n_exc in (1, 2, 3):
        fam = example3_block_family(1.0, 1.0, 0.5, n_exc)
        rep = locate_ep(fam, (0.05, 0.25))
        locations.append(rep.param_value)
    single_err = abs(locations[0] - 0.125)
    spread = float(np.ptp(locations))

    model = example3(1.0, 0.125, 1.0, 0.5, 4)
    nhh = analyze_nhh(effective_hamiltonian(model))
    vac = np.zeros(model.dim, dtype=complex)
    vac[0] = 1.0
    worst_t2 = 0.0
    for l in range(model.dim):
        rho = Operator(model.space, np.outer(nhh.vectors[:, l], vac.conj()))
        resid = apply_liouvillian(model, rho).matrix + 1j * nhh.eigenvalues[l] * rho.matrix
        worst_t2 = max(worst_t2, float(np.linalg.norm(resid)))

    from lioueps.ops_core import build_boson_ops, tensor
    bos = build_boson_ops(4)
    a = tensor(bos["a"], bos["identity"])
    b = tensor(bos["identity"], bos["a"])
    vac4 = np.zeros(16)
    vac4[0] = 1.0
    probes = [Operator(model.space, np.outer(m.matrix.conj().T @ vac4, vac4.conj()))
              for m in (a, b)]
    drift = np.array([[np.trace(x.matrix @ apply_liouvillian(model, p).matrix)
                       for p in probes] for x in (a, b)])
    mf_err = float(np.abs(drift - (-1j) * example3_mean_field_matrix(1.0, 0.125, 1.0, 0.5)).max())
    elapsed = time.perf_counter() - t0
    ok = (single_err <= 1e-6 and spread <= 1e-6 and worst_t2 <= 1e-10
          and mf_err <= 1e-12 and elapsed < 30.0)
    report(3, ok,
           f"single-excitation EP at 0.125 within {single_err:.2e} (<=1e-6); "
           f"block EPs agree within {spread:.2e} (<=1e-6); "
           f"vacuum-column identity residual {worst_t2:.2e} (<=1e-10); "
           f"mean-field matrix dev {mf_err:.2e} (<=1e-12); "
           f"runtime {elapsed:.2f}s (<30s)")


def test_criterion_3_slow_high_cutoff_vacuum_columns():
    model = example3(1.0, 0.125, 1.0, 0.5, 9)
    nhh = analyze_nhh(effective_hamiltonian(model))
    vac = np.zeros(model.dim, dtype=complex)
    vac[0] = 1.0
    worst = 0.0
    for l in range(model.dim):
        rho = Operator(model.space, np.outer(nhh.vectors[:, l], vac.conj()))
        resid = apply_liouvillian(model, rho).matrix + 1j * nhh.eigenvalues[l] * rho.matrix
        worst = max(worst, float(np.linalg.norm(resid)))
    report("3-slow", worst <= 1e-10,
           f"vacuum-column identity at 9 levels/mode: residual {worst:.2e} (<=1e-10)")


def test_criterion_4_lemma_suite_randomized():
    rng = np.random.default_rng(20250810)
    failures = []
    worst_re = -np.inf
    for point in range(3):
        draws = {
            "example1": {"omega": 1.0, "gamma_minus": float(rng.uniform(0, 1.5)),
                         "gamma_x": float(rng.uniform(0, 3)),
                         "gamma_y": float(rng.uniform(0, 3))},
            "example2": {"omega_x": 1.0, "gamma_minus": float(rng.uniform(0.2, 6))},
            "example3": {"omega": 1.0, "g": float(rng.uniform(0.05, 0.4)),
                         "gamma_a": float(rng.uniform(0.3, 1.2)),
                         "gamma_b": float(rng.uniform(0.05, 1.0)), "levels": 3},
            "dephasing": {"omega": 1.0, "gamma": float(rng.uniform(0.2, 2)),
                          "levels": 4},
        }
        for name, kwargs in draws.items():
            model = get_family(name).with_params(**kwargs).build()
            spec = analyze_liouvillian(assemble_liouvillian(model))
            worst_re = max(worst_re, float(spec.eigenvalues.real.max()))
            rep = check_lemmas(spec, model)
            if not rep.all_passed:
                failures.append((name, point, [c.name for c in rep.checks if not c.passed]))
            if name == "dephasing":
                named = {c.name: c for c in rep.checks}
                if "not applicable" in named["commuting-jumps"].detail:
                    failures.append((name, point, ["commuting-case check should be exact here"]))
    ok = not failures and worst_re <= 1e-10
    report(4, ok,
           f"lemma suite on 4 families x 3 random points: failures {failures or 'none'}; "
           f"max Re(lambda) = {worst_re:.2e} (<=1e-10)")


def test_criterion_5_dynamics_consistency_and_ep_signature():
    rng = np.random.default_rng(77)
    worst_dev = 0.0
    worst_trace = 0.0
    for _ in range(20):
        model = random_lindblad_model(rng, max_dim=6)
        liou = assemble_liouvillian(model)
        spec = analyze_liouvillian(liou)
        d = model.dim
        rho0 = Operator(model.space, np.eye(d) / d)
        times = np.linspace(0.0, 2.0, 9)
        a = propagate_modes(spec, rho0, times)
        b = propagate_expm(liou, rho0, times)
        worst_dev = max(worst_dev, float(np.abs(a.states - b.states).max()))
        worst_trace = max(worst_trace,
                          float(np.abs(a.traces() - 1).max()),
                          float(np.abs(b.traces() - 1).max()))

    model = example2(1.0, 4.0)
    liou = assemble_liouvillian(model)
    rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))
    times = np.linspace(0.0, 2.0, 60)
    prop = propagate_expm(liou, rho0, times)
    sz = Q["sigma_z"]
    steady = analyze_liouvillian(liou).steady_state
    signal = prop.expectation(sz) - np.trace(sz.matrix @ steady.matrix)
    fit = ep_decay_fit(times, signal, -3.0 + 0j)
    r2_gap = fit["r2_poly"] - fit["r2_pure"]
    ok = worst_dev <= 1e-8 and worst_trace <= 1e-10 and r2_gap > 1e-3
    report(5, ok,
           f"modes vs expm on 20 random models: dev {worst_dev:.2e} (<=1e-8); "
           f"trace dev {worst_trace:.2e} (<=1e-10); "
           f"EP decay signature r2_poly - r2_pure = {r2_gap:.4f} (>1e-3)")


def test_criterion_6_trajectory_unraveling():
    model = example2(1.0, 1.0)
    kwargs = dict(n_traj=2000, dt=1e-3, t_max=5.0, seed=2025, n_samples=26)
    ens = trajectories(model, [0, 1], **kwargs)
    rerun = trajectories(model, [0, 1], **kwargs)
    bit_identical = (ens.jump_records == rerun.jump_records
                     and np.array_equal(ens.trajectory_states, rerun.trajectory_states))

    liou = assemble_liouvillian(model)
    rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))
    ref = propagate_expm(liou, rho0, ens.times).expectation(Q["sigma_z"]).real
    mean, se = ens.observable_stats(Q["sigma_z"])
    dev_se = float(np.abs(mean[1:] - ref[1:]).max() / max(se[1:].min(), 1e-300))
    within = bool(np.all(np.abs(mean[1:] - ref[1:]) <= 5 * se[1:]))

    nj_prop = propagate_expm(assemble_liouvillian_no_jumps(model), rho0, ens.times)
    nj = ens.no_jump_density()
    worst_td = 0.0
    for k in range(len(ens.times)):
        tr = np.trace(nj_prop.states[k]).real
        diff = nj[k] - nj_prop.states[k] / tr
        worst_td = max(worst_td, 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum()))
    ok = within and worst_td <= 1e-3 and bit_identical
    report(6, ok,
           f"ensemble <sigma_z> within 5 SE at all sampled times: {within}; "
           f"no-jump conditional state trace distance {worst_td:.2e} (<=1e-3); "
           f"bit-identical rerun: {bit_identical}")


def test_criterion_7_kraus_step_richardson_ratio():
    model = example2(1.0, 1.0)
    liou = assemble_liouvillian(model)
    rho0 = Operator(qubit_space(), np.diag([0.0, 1.0]))

    def defect(tau):
        stepped = kraus_step(model, rho0, tau).matrix
        euler = rho0.matrix + tau * (liou.matrix @ vectorize(rho0)).reshape(2, 2)
        return np.linalg.norm(stepped - euler)

    ratio = defect(1e-3) / defect(5e-4)
    ok = abs(ratio - 4.0) <= 0.4
    report(7, ok,
           f"single-step consistency: defect(1e-3)/defect(5e-4) = {ratio:.6f} "
           f"(= 4 +- 10%)")
