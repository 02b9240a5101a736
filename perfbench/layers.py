"""Direct calls into each lioueps module, recorded as spans (traced run only).

For every workload the traced run repeats the compute calls that
`execute` makes, but from here, one public function at a time, so that
each module's share of `run_s` can be read off the spans:

  models     the eigensystem/matrix callables of a SpectrumFamily
  superop    assemble_liouvillian
  spectral   analyze_liouvillian, next to a bare scipy.linalg.eig floor
  ep_detect  locate_ep, and the Jordan analysis at the located EP
  dynamics   trajectories and the ensemble statistics the CLI prints

Everything the CLI does beyond these calls (formatting and writing the
files) is `cli` self time: the `cli.execute` span minus the `direct` span.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg

import lioueps as lp
from lioueps.errors import LiouepsError
from lioueps.ep_detect import ep_eigenmatrix, estimate_ep_order

# per-call spectral timings at n=81 taken after each ep-locate repetition
EP_SPECTRAL_CALLS = 5
# example3 size ladder for spectral.overhead_ratio: levels -> repetitions,
# measured in the traced run of LADDER_WORKLOAD (the same model family)
LADDER = {2: 20, 3: 10, 4: 4, 5: 2}
LADDER_WORKLOAD = "spectrum-l5"


def _model(cfg: dict) -> tuple[str, dict]:
    params = dict(cfg["model"])
    return params.pop("name"), params


def spectrum(tracer, cfg: dict) -> dict:
    name, params = _model(cfg)
    with tracer.span("direct"):
        with tracer.span("models.build"):
            model = lp.get_family(name, **params).build()
        with tracer.span("superop.assemble"):
            liou = lp.assemble_liouvillian(model)
        with tracer.span("spectral.analyze"):
            spec = lp.analyze_liouvillian(liou)
        with tracer.span("ep_detect.overlap"):
            lp.overlap_matrix(spec)
    with tracer.span("spectral.eig_floor"):
        scipy.linalg.eig(liou.matrix)
    return {"spectrum": spec}


def ep_locate(tracer, cfg: dict) -> dict:
    name, params = _model(cfg)
    sw = cfg["sweep"]
    base = lp.get_family(name, **params).liouvillian_family(sw["param"])
    family = dataclasses.replace(
        base, eigensystem=tracer.wrap("models.eigensystem", base.eigensystem),
        matrix=tracer.wrap("models.matrix", base.matrix))
    with tracer.span("direct"):
        with tracer.span("ep_detect.locate"):
            report = lp.locate_ep(family, (sw["from"], sw["to"]),
                                  coarse_points=sw["steps"])
    mat = base.matrix(report.param_value)
    op = lp.SuperOp(base.space, mat)
    with tracer.span("ep_detect.jordan"):
        rho1 = ep_eigenmatrix(op, report.lambda_ep)
        lp.jordan_chain(op, report.lambda_ep, rho1=rho1)
        estimate_ep_order(mat, report.lambda_ep)
    for _ in range(EP_SPECTRAL_CALLS):
        with tracer.span("spectral.analyze"):
            lp.analyze_liouvillian(op)
        with tracer.span("spectral.eig_floor"):
            scipy.linalg.eig(mat)
    return {}


def trajectories(tracer, cfg: dict) -> dict:
    name, params = _model(cfg)
    tr = cfg["trajectories"]
    qubit = lp.build_qubit_ops()
    with tracer.span("direct"):
        with tracer.span("models.build"):
            model = lp.get_family(name, **params).build()
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[-1] = 1.0                                   # "excited"
        with tracer.span("dynamics.trajectories"):
            ens = lp.trajectories(model, psi0, n_traj=tr["n_traj"], dt=tr["dt"],
                                  t_max=tr["t_max"], seed=tr["seed"],
                                  n_samples=tr["n_samples"])
        with tracer.span("dynamics.stats"):
            ens.ensemble_average
            for op in ("sigma_x", "sigma_y", "sigma_z"):
                ens.observable_stats(qubit[op])
    jumps = sum(len(r) for r in ens.jump_records)
    return {"jumps_per_traj": jumps / tr["n_traj"],
            "traj_steps": tr["n_traj"] * int(round(tr["t_max"] / tr["dt"]))}


DIRECT = {"spectrum": spectrum, "ep-locate": ep_locate, "trajectories": trajectories}


def defect_stats(spec) -> tuple[int, float]:
    """Defect flag count and max |Tr(sigma_i rho_j) - delta_ij| over unflagged modes."""
    n = len(spec.eigenvalues)
    left = spec.left_mats.reshape(n, -1)
    # Tr(sigma rho) = sum_ab sigma_ab rho_ba
    right = np.transpose(spec.right_mats, (0, 2, 1)).reshape(n, -1)
    ok = ~np.asarray(spec.defect_flags, dtype=bool)
    gram = left[ok] @ right[ok].T
    resid = float(np.abs(gram - np.eye(gram.shape[0])).max()) if gram.size else 0.0
    return int(np.sum(~ok)), resid


def overhead_ladder(tracer) -> dict[int, tuple[float, float]]:
    """analyze_liouvillian and bare eig per call for example3 (defaults, g=0.1)."""
    out = {}
    for levels, reps in LADDER.items():
        liou = lp.assemble_liouvillian(lp.get_family("example3", levels=levels).build())
        n = liou.matrix.shape[0]
        for _ in range(reps):
            with tracer.span(f"ladder.n{n}.analyze"):
                lp.analyze_liouvillian(liou)
            with tracer.span(f"ladder.n{n}.eig_floor"):
                scipy.linalg.eig(liou.matrix)
        out[n] = (tracer.median_per_call(f"ladder.n{n}.analyze"),
                  tracer.median_per_call(f"ladder.n{n}.eig_floor"))
    return out


def offgrid_ep_fails(cfg: dict) -> bool:
    """Whether locate_ep misses the EP when the bracket is shifted off the grid.

    The workload's bracket puts a coarse grid point on the EP.  Shifted by
    a third of a grid cell the search fails in lioueps 0.1.0 (a known
    defect, recorded here and never gated).
    """
    name, params = _model(cfg)
    sw = cfg["sweep"]
    shift = (sw["to"] - sw["from"]) / (sw["steps"] - 1) / 3
    family = lp.get_family(name, **params).liouvillian_family(sw["param"])
    try:
        report = lp.locate_ep(family, (sw["from"] + shift, sw["to"] + shift),
                              coarse_points=sw["steps"])
    except LiouepsError:
        return True
    ref = (params["gamma_a"] - params["gamma_b"]) / 4
    return not (abs(report.param_value - ref) <= 1e-6 and report.order_estimate == 2)
