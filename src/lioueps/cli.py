"""Configuration-driven command line entry point.

One JSON config per run: build a model, then run one of
spectrum | sweep | ep-locate | dynamics | trajectories | verify.
Everything is written to text files with '#'-prefixed metadata headers
(config echo, convention tags, tolerances) so the emitted data is
self-describing; floats carry 17 significant digits and row order is
deterministic for identical config and seed.

Exit codes (stable):
  0  success
  1  unexpected internal error
  2  configuration error (syntax or validation; all findings listed)
  3  model build error (bad parameter values)
  4  numerical analysis error (no EP bracketed, spectral failure, ...)
  5  verification suite reported failures
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LiouepsError, ModelBuildError
from .ops_core import Operator, build_qubit_ops
from .superop import (
    LindbladModel,
    assemble_liouvillian,
    assemble_liouvillian_no_jumps,
)
from .spectral import DEFAULT_DEFECT_TOL, DEFAULT_ZERO_TOL, analyze_liouvillian
from .ep_detect import (DEFAULT_PARAM_TOL, DEFAULT_RANK_TOL, Eigensystem, locate_ep,
                        overlap_matrix, sweep)
from .models import ModelFamily, family_names, get_family
from .dynamics import propagate_expm, propagate_modes, trajectories
from .verify import run_verification

COMMANDS = ("spectrum", "sweep", "ep-locate", "dynamics", "trajectories", "verify")
CONVENTION = ("vec-rowmajor; jump operators folded as sqrt(gamma)*X; "
              "sigma_z = diag(+1,-1), ground state first")
# rows per chunk of Python scalars in _write_csv: ~1 MB for four columns
_CSV_CHUNK_ROWS = 8192


@dataclass
class RunConfig:
    """Validated run configuration (see parse_config)."""

    command: str
    model_name: str | None = None
    model_params: dict = field(default_factory=dict)
    operator: str = "liouvillian"
    sweep_param: str | None = None
    sweep_from: float = 0.0
    sweep_to: float = 0.0
    sweep_steps: int = 0
    branch_pair: tuple[int, int] | None = None
    rho0: object = "excited"
    t_max: float = 0.0
    n_times: int = 0
    method: str = "expm"
    generator: str = "liouvillian"
    psi0: object = "excited"
    n_traj: int = 0
    dt: float = 0.0
    seed: int = 0
    n_samples: int = 51
    output: str = "lioueps"
    tolerances: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _check_keys(errors, obj, allowed, where):
    for key in obj:
        if key not in allowed:
            errors.append(f"{where}: unknown key '{key}' "
                          f"(allowed: {', '.join(sorted(allowed))})")


def _number(errors, obj, where, key, *, required=False, default=None,
            minimum=None, strict_min=None, integer=False):
    if key not in obj:
        if required:
            errors.append(f"{where}.{key}: required field missing")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{where}.{key}: expected a number, got {val!r}")
        return default
    if integer and int(val) != val:
        errors.append(f"{where}.{key}: expected an integer, got {val!r}")
        return default
    if minimum is not None and val < minimum:
        errors.append(f"{where}.{key}: must be >= {minimum}, got {val!r}")
        return default
    if strict_min is not None and val <= strict_min:
        errors.append(f"{where}.{key}: must be > {strict_min}, got {val!r}")
        return default
    return int(val) if integer else float(val)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Strict: unknown keys are rejected everywhere, every numeric field is
    range-checked before any computation starts, and all validation
    errors are reported at once through ConfigError.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    errors: list[str] = []
    cfg = RunConfig(command="", raw=raw)

    top_allowed = {"command", "model", "operator", "sweep", "ep", "dynamics",
                   "trajectories", "output", "tolerances"}
    _check_keys(errors, raw, top_allowed, "config")

    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(f"config.command: expected one of {', '.join(COMMANDS)}, "
                      f"got {command!r}")
        raise ConfigError(errors)
    cfg.command = command

    operator = raw.get("operator", "liouvillian")
    if operator not in ("liouvillian", "nhh"):
        errors.append(f"config.operator: expected 'liouvillian' or 'nhh', got {operator!r}")
    cfg.operator = operator

    out = raw.get("output", "lioueps")
    if not isinstance(out, str) or not out:
        errors.append(f"config.output: expected a non-empty string, got {out!r}")
    else:
        cfg.output = out

    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        errors.append("config.tolerances: expected an object")
    else:
        _check_keys(errors, tol, {"zero_tol", "defect_tol", "param_tol", "rank_tol"},
                    "config.tolerances")
        for key in tol:
            _number(errors, tol, "config.tolerances", key, strict_min=0.0)
        cfg.tolerances = dict(tol)

    needs_model = command != "verify"
    model = raw.get("model")
    if needs_model:
        if not isinstance(model, dict):
            errors.append("config.model: required object with a 'name' field")
        else:
            name = model.get("name")
            if name not in family_names():
                errors.append(f"config.model.name: unknown model {name!r}; "
                              f"available families: {', '.join(family_names())}")
            else:
                cfg.model_name = name
                family = get_family(name)
                params = {k: v for k, v in model.items() if k != "name"}
                _check_keys(errors, params, set(family.param_names),
                            f"config.model({name})")
                for key, val in params.items():
                    if key not in family.param_names:
                        continue
                    if isinstance(val, bool) or not isinstance(val, (int, float)):
                        errors.append(f"config.model.{key}: expected a number, got {val!r}")
                    elif key.startswith("gamma") and val < 0:
                        errors.append(f"config.model.{key}: rate must be >= 0, got {val!r}")
                    elif key == "levels" and (int(val) != val or val < 2):
                        errors.append(f"config.model.{key}: must be an integer >= 2, got {val!r}")
                cfg.model_params = {k: v for k, v in params.items()
                                    if isinstance(v, (int, float)) and not isinstance(v, bool)}
                if not errors:
                    # range-check semantically before any computation starts
                    try:
                        get_family(name).with_params(**cfg.model_params).build()
                    except ModelBuildError as exc:
                        errors.append(f"config.model: {exc}")
    elif model is not None:
        errors.append("config.model: not allowed for the verify command")

    if command in ("sweep", "ep-locate"):
        sw = raw.get("sweep")
        if not isinstance(sw, dict):
            errors.append(f"config.sweep: required object for the {command} command")
        else:
            _check_keys(errors, sw, {"param", "from", "to", "steps"}, "config.sweep")
            param = sw.get("param")
            if cfg.model_name is not None:
                names = get_family(cfg.model_name).param_names
                if param not in names:
                    errors.append(f"config.sweep.param: expected one of {list(names)}, "
                                  f"got {param!r}")
                else:
                    cfg.sweep_param = param
            lo = _number(errors, sw, "config.sweep", "from", required=True)
            hi = _number(errors, sw, "config.sweep", "to", required=True)
            steps = _number(errors, sw, "config.sweep", "steps", required=True,
                            integer=True, minimum=2)
            if lo is not None and hi is not None and not hi > lo:
                errors.append(f"config.sweep: 'to' must exceed 'from', got [{lo}, {hi}]")
            cfg.sweep_from = lo if lo is not None else 0.0
            cfg.sweep_to = hi if hi is not None else 0.0
            cfg.sweep_steps = steps if steps is not None else 0

    ep = raw.get("ep")
    if ep is not None:
        if command != "ep-locate":
            errors.append("config.ep: only allowed for the ep-locate command")
        elif not isinstance(ep, dict):
            errors.append("config.ep: expected an object")
        else:
            _check_keys(errors, ep, {"branch_pair"}, "config.ep")
            bp = ep.get("branch_pair")
            if bp is not None:
                if (not isinstance(bp, list) or len(bp) != 2
                        or not all(isinstance(b, int) and not isinstance(b, bool)
                                   and b >= 0 for b in bp)
                        or bp[0] == bp[1]):
                    errors.append("config.ep.branch_pair: expected two distinct "
                                  f"non-negative integers, got {bp!r}")
                else:
                    cfg.branch_pair = (bp[0], bp[1])

    if command == "dynamics":
        dyn = raw.get("dynamics")
        if not isinstance(dyn, dict):
            errors.append("config.dynamics: required object for the dynamics command")
        else:
            _check_keys(errors, dyn,
                        {"rho0", "t_max", "n_times", "method", "generator"},
                        "config.dynamics")
            cfg.t_max = _number(errors, dyn, "config.dynamics", "t_max",
                                required=True, strict_min=0.0) or 0.0
            cfg.n_times = _number(errors, dyn, "config.dynamics", "n_times",
                                  default=101, integer=True, minimum=2) or 101
            cfg.rho0 = dyn.get("rho0", "excited")
            _validate_state(errors, cfg.rho0, "config.dynamics.rho0")
            method = dyn.get("method", "expm")
            if method not in ("expm", "modes"):
                errors.append(f"config.dynamics.method: expected 'expm' or 'modes', got {method!r}")
            cfg.method = method
            gen = dyn.get("generator", "liouvillian")
            if gen not in ("liouvillian", "no-jump"):
                errors.append("config.dynamics.generator: expected 'liouvillian' "
                              f"or 'no-jump', got {gen!r}")
            cfg.generator = gen
            if method == "modes" and gen == "no-jump":
                errors.append("config.dynamics.method: 'modes' needs a generator with a "
                              "steady state; use 'expm' for generator 'no-jump'")
    elif "dynamics" in raw:
        errors.append("config.dynamics: only allowed for the dynamics command")

    if command == "trajectories":
        tr = raw.get("trajectories")
        if not isinstance(tr, dict):
            errors.append("config.trajectories: required object for the trajectories command")
        else:
            _check_keys(errors, tr,
                        {"psi0", "n_traj", "dt", "t_max", "seed", "n_samples"},
                        "config.trajectories")
            cfg.n_traj = _number(errors, tr, "config.trajectories", "n_traj",
                                 required=True, integer=True, minimum=1) or 0
            cfg.dt = _number(errors, tr, "config.trajectories", "dt",
                             required=True, strict_min=0.0) or 0.0
            cfg.t_max = _number(errors, tr, "config.trajectories", "t_max",
                                required=True, strict_min=0.0) or 0.0
            cfg.seed = _number(errors, tr, "config.trajectories", "seed",
                               default=0, integer=True, minimum=0) or 0
            cfg.n_samples = _number(errors, tr, "config.trajectories", "n_samples",
                                    default=51, integer=True, minimum=2) or 51
            cfg.psi0 = tr.get("psi0", "excited")
            _validate_state(errors, cfg.psi0, "config.trajectories.psi0")
    elif "trajectories" in raw:
        errors.append("config.trajectories: only allowed for the trajectories command")

    if errors:
        raise ConfigError(errors)
    return cfg


def _validate_state(errors, state, where):
    if isinstance(state, str):
        if state in ("ground", "excited", "maximally-mixed", "steady"):
            return
        if state.startswith("basis:") and state[6:].isdigit():
            return
        errors.append(f"{where}: expected 'ground', 'excited', 'maximally-mixed', "
                      f"'steady', 'basis:<k>' or a matrix of [re, im] pairs, got {state!r}")
        return
    if isinstance(state, list):
        return
    errors.append(f"{where}: expected a string preset or nested list, got {state!r}")


def _state_matrix(state, model: LindbladModel, spec) -> Operator:
    """Initial density matrix; "steady" is read from spec, the analysis of
    the model's full generator."""
    d = model.dim
    if state == "maximally-mixed":
        return Operator(model.space, np.eye(d, dtype=complex) / d)
    if state == "steady":
        return spec.steady_state
    if isinstance(state, str):
        v = _state_vector(state, model)
        return Operator(model.space, np.outer(v, v.conj()))
    arr = _complex_array(state)
    if arr.shape != (d, d):
        raise ConfigError([f"initial state shape {arr.shape} does not match dimension {d}"])
    return Operator(model.space, arr)


def _state_vector(state, model: LindbladModel) -> np.ndarray:
    d = model.dim
    if isinstance(state, str):
        if state == "ground":
            v = np.zeros(d, dtype=complex)
            v[0] = 1.0
        elif state == "excited":
            v = np.zeros(d, dtype=complex)
            v[d - 1] = 1.0
        elif state.startswith("basis:"):
            k = int(state.split(":")[1])
            if k >= d:
                raise ConfigError([f"basis index {k} out of range for dimension {d}"])
            v = np.zeros(d, dtype=complex)
            v[k] = 1.0
        else:
            raise ConfigError([f"psi0 preset {state!r} is not a pure state"])
        return v
    arr = _complex_array(state)
    if arr.shape != (d,):
        raise ConfigError([f"psi0 shape {arr.shape} does not match dimension {d}"])
    return arr / np.linalg.norm(arr)


def _complex_array(nested) -> np.ndarray:
    def conv(x):
        if isinstance(x, list) and len(x) == 2 and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in x):
            return complex(x[0], x[1])
        if isinstance(x, list):
            return [conv(v) for v in x]
        raise ConfigError([f"state entries must be [re, im] pairs, got {x!r}"])
    return np.asarray(conv(nested), dtype=complex)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _header(cfg: RunConfig, extra: dict | None = None) -> list[str]:
    lines = [
        f"# lioueps {cfg.command}",
        f"# config = {json.dumps(cfg.raw, sort_keys=True, separators=(',', ':'))}",
        f"# convention = {CONVENTION}",
        f"# tolerances = {json.dumps(cfg.tolerances, sort_keys=True, separators=(',', ':'))}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"# {key} = {val}")
    return lines


def _write_csv(cfg: RunConfig, path: str, names, columns, extra: dict | None = None):
    """Write one data file: header, column names, then one row per entry.

    Integer columns are written as %d and every other column with 17
    significant digits, so each float reads back exactly.  Rows are
    formatted from Python scalars (numpy scalars format slower), one
    chunk of rows at a time so that no column is held as Python objects
    whole; no list of all output lines is built.
    """
    columns = [np.asarray(col) for col in columns]
    fmt = ",".join("%d" if np.issubdtype(col.dtype, np.integer) else "%.17g"
                   for col in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_header(cfg, extra) + [",".join(names)]) + "\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = [col[start:start + _CSV_CHUNK_ROWS].tolist() for col in columns]
            fh.writelines(map(fmt.__mod__, zip(*chunk)))


def _family_from_config(cfg: RunConfig) -> ModelFamily:
    return get_family(cfg.model_name, **cfg.model_params)


def _spectrum_family(cfg: RunConfig, family: ModelFamily):
    if cfg.operator == "nhh":
        return family.nhh_family(cfg.sweep_param)
    return family.liouvillian_family(
        cfg.sweep_param, zero_tol=cfg.tolerances.get("zero_tol", DEFAULT_ZERO_TOL))


def _write_branches(cfg: RunConfig, prefix: str, grid, systems) -> list[str]:
    """Eigenvalue and overlap tables, one block per grid point.

    systems[k] is the eigensystem at grid[k].  Eigenvalue rows run in
    (|Re|, Im, branch) order; overlap rows are the pairs i < j, row-major.
    """
    n = systems[0].size
    grid = np.asarray(grid, dtype=float)
    order = [np.lexsort((np.arange(n), s.values.imag, np.abs(s.values.real)))
             for s in systems]
    vals = np.concatenate([s.values[o] for s, o in zip(systems, order)])
    eig_path = f"{prefix}_eigenvalues.csv"
    _write_csv(cfg, eig_path, ["param", "index", "re_lambda", "im_lambda", "branch_id"],
               [np.repeat(grid, n), np.tile(np.arange(n), grid.size),
                vals.real, vals.imag, np.concatenate(order)])
    i, j = np.triu_indices(n, 1)
    ovl = np.concatenate([overlap_matrix(s)[i, j] for s in systems])
    ovl_path = f"{prefix}_overlaps.csv"
    _write_csv(cfg, ovl_path, ["param", "i", "j", "overlap"],
               [np.repeat(grid, i.size), np.tile(i, grid.size), np.tile(j, grid.size), ovl])
    return [eig_path, ovl_path]


def _observable_columns(model: LindbladModel):
    cols = []
    if model.dim == 2:
        q = build_qubit_ops()
        cols = [("sigma_x", q["sigma_x"].matrix),
                ("sigma_y", q["sigma_y"].matrix),
                ("sigma_z", q["sigma_z"].matrix)]
    return cols


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_spectrum(cfg: RunConfig, prefix: str) -> list[str]:
    family = _family_from_config(cfg)
    spec_family = _spectrum_family(cfg, family)
    param_val = family.params_at()[spec_family.param_name]
    return _write_branches(cfg, prefix, [param_val], [spec_family.eigensystem(param_val)])


def _run_sweep(cfg: RunConfig, prefix: str) -> list[str]:
    family = _family_from_config(cfg)
    spec_family = _spectrum_family(cfg, family)
    grid = np.linspace(cfg.sweep_from, cfg.sweep_to, cfg.sweep_steps)
    result = sweep(spec_family, grid)
    systems = [Eigensystem(result.eigenvalues[k], result.vectors[k], result.zero_mask[k])
               for k in range(result.grid.size)]
    return _write_branches(cfg, prefix, result.grid, systems)


def _run_ep_locate(cfg: RunConfig, prefix: str) -> list[str]:
    family = _family_from_config(cfg)
    spec_family = _spectrum_family(cfg, family)
    report = locate_ep(
        spec_family, (cfg.sweep_from, cfg.sweep_to),
        branch_pair=cfg.branch_pair,
        param_tol=cfg.tolerances.get("param_tol", DEFAULT_PARAM_TOL),
        rank_tol=cfg.tolerances.get("rank_tol", DEFAULT_RANK_TOL),
        coarse_points=max(cfg.sweep_steps, 5))
    payload = {
        "config": cfg.raw,
        "convention": CONVENTION,
        "operator": cfg.operator,
        "model": cfg.model_name,
        "ep": report.to_dict(),
    }
    path = f"{prefix}_ep.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path]


def _run_dynamics(cfg: RunConfig, prefix: str) -> list[str]:
    family = _family_from_config(cfg)
    model = family.build()
    liou = (assemble_liouvillian(model) if cfg.generator == "liouvillian"
            else assemble_liouvillian_no_jumps(model))
    spec = None
    if cfg.method == "modes" or cfg.rho0 == "steady":
        # one analysis of the full generator serves the steady rho0 and the
        # mode expansion (parse_config admits modes only for the full one)
        full = liou if cfg.generator == "liouvillian" else assemble_liouvillian(model)
        spec = analyze_liouvillian(full, cfg.tolerances.get("zero_tol", DEFAULT_ZERO_TOL),
                                   cfg.tolerances.get("defect_tol", DEFAULT_DEFECT_TOL))
    rho0 = _state_matrix(cfg.rho0, model, spec)
    times = np.linspace(0.0, cfg.t_max, cfg.n_times)
    if cfg.method == "modes":
        prop = propagate_modes(spec, rho0, times)
    else:
        prop = propagate_expm(liou, rho0, times)
    cols = _observable_columns(model)
    names = ["time", "trace_re", "purity"]
    names += [f"p{k}" for k in range(model.dim)]
    names += [name for name, _ in cols]
    columns = [times, prop.traces().real, prop.purities()]
    columns += list(np.diagonal(prop.states, axis1=1, axis2=2).real.T)
    columns += [[np.trace(mat @ s).real for s in prop.states] for _, mat in cols]
    path = f"{prefix}_dynamics.csv"
    _write_csv(cfg, path, names, columns,
               {"generator": cfg.generator, "method": cfg.method})
    return [path]


def _run_trajectories(cfg: RunConfig, prefix: str, seed_override) -> list[str]:
    family = _family_from_config(cfg)
    model = family.build()
    psi0 = _state_vector(cfg.psi0, model)
    seed = cfg.seed if seed_override is None else seed_override
    ens = trajectories(model, psi0, n_traj=cfg.n_traj, dt=cfg.dt,
                       t_max=cfg.t_max, seed=seed, n_samples=cfg.n_samples)
    cols = _observable_columns(model)
    names = ["time", "survival"]
    names += [f"p{k}_mean" for k in range(model.dim)]
    columns = [ens.times, ens.survival]
    columns += list(np.diagonal(ens.ensemble_average, axis1=1, axis2=2).real.T)
    for name, mat in cols:
        names += [f"{name}_mean", f"{name}_stderr"]
        columns += ens.observable_stats(Operator(model.space, mat))
    path = f"{prefix}_dynamics.csv"
    _write_csv(cfg, path, names, columns,
               {"seed": seed, "n_traj": cfg.n_traj, "dt": f"{cfg.dt:.17g}"})
    return [path]


def execute(cfg: RunConfig, output_dir: str | None = None, threads: int = 1,
            seed_override: int | None = None, stream=None) -> int:
    """Run a validated configuration; returns the process exit status.

    threads is accepted and ignored: sweeps run serially, and the keyword
    stays only because the benchmark worker (perfbench/worker.py) passes it.
    """
    stream = stream if stream is not None else sys.stdout
    prefix = cfg.output
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        prefix = os.path.join(output_dir, cfg.output)

    if cfg.command == "verify":
        lines, ok = run_verification()
        for line in lines:
            print(line, file=stream)
        return 0 if ok else 5

    if cfg.command == "spectrum":
        files = _run_spectrum(cfg, prefix)
    elif cfg.command == "sweep":
        files = _run_sweep(cfg, prefix)
    elif cfg.command == "ep-locate":
        files = _run_ep_locate(cfg, prefix)
    elif cfg.command == "dynamics":
        files = _run_dynamics(cfg, prefix)
    elif cfg.command == "trajectories":
        files = _run_trajectories(cfg, prefix, seed_override)
    else:  # pragma: no cover - parse_config rejects unknown commands
        raise ConfigError([f"unhandled command {cfg.command!r}"])
    for path in files:
        print(f"wrote {path}", file=stream)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lioueps",
        description="Liouvillian / NHH spectra, exceptional points, and dynamics")
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--output-dir", default=None,
                        help="directory prepended to the output prefix")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the trajectory seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        return execute(cfg, output_dir=args.output_dir, seed_override=args.seed)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except ModelBuildError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except LiouepsError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
