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
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, LiouepsError, ModelBuildError
from .ops_core import (DEFAULT_DEFECT_TOL, DEFAULT_PARAM_TOL, DEFAULT_RANK_TOL,
                       DEFAULT_ZERO_TOL, Operator, build_qubit_ops)
from .superop import LindbladModel, assemble_liouvillian, assemble_liouvillian_no_jumps
from .models import ModelFamily, family_names, get_family

# Each command imports the compute modules it runs in its own body (spectral
# and ep_detect for the spectral commands, dynamics for the time evolutions,
# verify for verify), so that a CLI process loads only those.

COMMANDS = ("spectrum", "sweep", "ep-locate", "dynamics", "trajectories", "verify")
CONVENTION = ("vec-rowmajor; jump operators folded as sqrt(gamma)*X; "
              "sigma_z = diag(+1,-1), ground state first")


# every command but verify builds a model and writes files
_WRITERS = COMMANDS[:-1]
_SPECTRAL = ("spectrum", "sweep", "ep-locate")
_SWEPT = ("sweep", "ep-locate")
_EP, _DYN, _TRAJ = ("ep-locate",), ("dynamics",), ("trajectories",)
_REQUIRED = object()  # default of a key that must be given


class _Key(NamedTuple):
    readers: tuple[str, ...]  # the commands that read the key
    kind: str                 # how _value checks it
    default: object = None    # filled in when absent
    bound: object = None      # minimum of an integer (or its [min, stop) range),
                              # choices of a choice


# section -> key -> spec; "config" holds the top-level keys, every other
# section is an object of that name at the top level
_KEYS = {
    "config": {
        "operator": _Key(_SPECTRAL, "choice", "liouvillian", ("liouvillian", "nhh")),
        "output": _Key(_WRITERS, "text", "lioueps"),
    },
    "sweep": {
        "param": _Key(_SWEPT, "param", _REQUIRED),
        "from": _Key(_SWEPT, "number", _REQUIRED),
        "to": _Key(_SWEPT, "number", _REQUIRED),
        "steps": _Key(_SWEPT, "integer", _REQUIRED, 2),
    },
    "ep": {
        "branch_pair": _Key(_EP, "pair"),
    },
    "dynamics": {
        "rho0": _Key(_DYN, "rho0", "excited"),
        "t_max": _Key(_DYN, "positive", _REQUIRED),
        "n_times": _Key(_DYN, "integer", 101, 2),
        "method": _Key(_DYN, "choice", "expm", ("expm", "modes")),
        "generator": _Key(_DYN, "choice", "liouvillian", ("liouvillian", "no-jump")),
    },
    "trajectories": {
        "psi0": _Key(_TRAJ, "psi0", "excited"),
        "n_traj": _Key(_TRAJ, "integer", _REQUIRED, 1),
        "dt": _Key(_TRAJ, "positive", _REQUIRED),
        "t_max": _Key(_TRAJ, "positive", _REQUIRED),
        "seed": _Key(_TRAJ, "integer", 0, (0, 2**64)),  # the first Philox key word
        "n_samples": _Key(_TRAJ, "integer", 51, 2),
    },
    "tolerances": {
        "zero_tol": _Key(_SPECTRAL + _DYN, "positive", DEFAULT_ZERO_TOL),
        "defect_tol": _Key(_DYN, "positive", DEFAULT_DEFECT_TOL),
        "param_tol": _Key(_EP, "positive", DEFAULT_PARAM_TOL),
        "rank_tol": _Key(_EP, "positive", DEFAULT_RANK_TOL),
    },
}
# section -> key -> the commands that read it; every command may hold a
# section object, whose keys are checked one by one
_READERS = {section: {key: spec.readers for key, spec in keys.items()}
            for section, keys in _KEYS.items()}
_READERS["config"].update(command=COMMANDS, model=_WRITERS,
                          **{section: COMMANDS for section in _KEYS if section != "config"})


@dataclass
class RunConfig:
    """Validated run configuration (see parse_config).

    family is the model family with the config's parameters filled in
    (None for verify).  cfg[section, key] is the value of a key the
    command reads, with the default of _KEYS filled in; rho0 and psi0 are
    resolved to arrays (rho0 "steady" stays a name until the analysis runs).
    """

    command: str
    raw: dict = field(default_factory=dict)
    family: ModelFamily | None = None
    values: dict = field(default_factory=dict)

    def __getitem__(self, key: tuple[str, str]):
        return self.values[key]


def _is_number(val) -> bool:
    """A finite JSON number (Python's json also reads NaN and Infinity)."""
    return (isinstance(val, int) and not isinstance(val, bool)
            or isinstance(val, float) and math.isfinite(val))


def _check_keys(errors, obj, readers, command, where):
    """Refuse the keys of obj that readers does not list, and those the
    command does not read."""
    for key in obj:
        if key not in readers:
            allowed = sorted(k for k, r in readers.items() if command in r)
            errors.append(f"{where}: unknown key '{key}' (allowed: {', '.join(allowed)})")
        elif command not in readers[key]:
            errors.append(f"{where}.{key}: not allowed for the {command} command "
                          f"(read by: {', '.join(readers[key])})")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Strict: every key is checked against _KEYS, and a key the command does
    not read is refused like an unknown one.  The commands read:
      spectrum      model, operator, output, tolerances.zero_tol (not with
                    operator "nhh": H_eff has no zero sector)
      sweep         as spectrum, plus sweep.{param, from, to, steps}
      ep-locate     as sweep, plus ep.branch_pair and tolerances.{param_tol,
                    rank_tol}
      dynamics      model, output, dynamics.{rho0, t_max, n_times, method,
                    generator}, and tolerances.{zero_tol, defect_tol} only
                    with method "modes" or rho0 "steady"
      trajectories  model, output, trajectories.{psi0, n_traj, dt, t_max,
                    seed, n_samples}
      verify        nothing besides command
    sweep.param must be a model parameter whose family-table value is a
    float: an integer one (levels) fixes the model size and cannot be
    swept.  sweep.steps (at least 2) is the point count of a sweep's grid;
    ep-locate takes it as the point count of its coarse scan, raising a
    value below 5 to 5.  ep.branch_pair holds two distinct indices below
    the branch count n, D^2 for the Liouvillian and D for "nhh" (D the
    model dimension).  The model is built to range-check its parameters, and
    rho0 or psi0 is resolved against its dimension, before any
    computation starts.  All findings are reported at once through
    ConfigError.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError([f"config.command: expected one of {', '.join(COMMANDS)}, "
                           f"got {command!r}"])
    errors: list[str] = []
    cfg = RunConfig(command=command, raw=raw)
    family, dim = None, None
    model = raw.get("model")
    if command in _WRITERS:
        if not isinstance(model, dict):
            errors.append("config.model: required object with a 'name' field")
        elif model.get("name") not in family_names():
            errors.append(f"config.model.name: unknown model {model.get('name')!r}; "
                          f"available families: {', '.join(family_names())}")
        else:
            family = get_family(model["name"])
            params = {k: v for k, v in model.items() if k != "name"}
            _check_keys(errors, params, dict.fromkeys(family.params, COMMANDS),
                        command, f"config.model({family.name})")
            for key, val in params.items():
                if key in family.params and not _is_number(val):
                    errors.append(f"config.model.{key}: expected a number, got {val!r}")
            cfg.family = family.with_params(**{k: v for k, v in params.items()
                                               if k in family.params and _is_number(v)})
            try:  # the builder is the range check
                dim = cfg.family.build().dim
            except ModelBuildError as exc:
                errors.append(f"config.model: {exc}")

    for section, keys in _KEYS.items():
        top = section == "config"
        where, obj = ("config", raw) if top else (f"config.{section}", raw.get(section, {}))
        if not isinstance(obj, dict):
            errors.append(f"{where}: expected an object")
            continue
        _check_keys(errors, obj, _READERS[section], command, where)
        for key, spec in keys.items():
            if command not in spec.readers:
                continue
            val = obj.get(key, spec.default)
            if val is _REQUIRED:
                errors.append(f"{where}.{key}: required field missing")
            else:
                cfg.values[section, key] = _value(errors, f"{where}.{key}", val, spec,
                                                  family, dim)

    lo, hi = cfg.values.get(("sweep", "from")), cfg.values.get(("sweep", "to"))
    if lo is not None and hi is not None and not hi > lo:
        errors.append(f"config.sweep: 'to' must exceed 'from', got [{lo}, {hi}]")
    method, rho0 = cfg.values.get(("dynamics", "method")), cfg.values.get(("dynamics", "rho0"))
    if method == "modes" and cfg.values.get(("dynamics", "generator")) == "no-jump":
        errors.append("config.dynamics.method: 'modes' needs a generator with a "
                      "steady state; use 'expm' for generator 'no-jump'")
    nhh = cfg.values.get(("config", "operator")) == "nhh"
    pair, n = cfg.values.get(("ep", "branch_pair")), dim and (dim if nhh else dim * dim)
    if pair and n and max(pair) >= n:
        errors.append(f"config.ep.branch_pair: the {'H_eff' if nhh else 'Liouvillian'} of "
                      f"this model has {n} branches (indices 0..{n - 1}), got {list(pair)}")
    # tolerances no analysis reads: H_eff has no zero sector, and expm
    # from a given state runs no eigenanalysis
    if nhh:
        _refuse_tolerances(errors, raw, command, ("zero_tol",), "operator 'nhh'")
    if method == "expm" and not (isinstance(rho0, str) and rho0 == "steady"):
        _refuse_tolerances(errors, raw, command, ("zero_tol", "defect_tol"),
                           "method 'expm' and a rho0 other than 'steady'")
    if errors:
        raise ConfigError(errors)
    return cfg


def _refuse_tolerances(errors, raw, command, keys, reason):
    given = raw.get("tolerances")
    for key in keys:
        if isinstance(given, dict) and key in given:
            errors.append(f"config.tolerances.{key}: not allowed for the {command} "
                          f"command with {reason}")


def _value(errors, where, val, spec: _Key, family: ModelFamily | None, dim: int | None):
    """The validated value of one key, or None with a finding."""
    kind, bound = spec.kind, spec.bound
    if kind in ("rho0", "psi0"):
        return _state(errors, where, val, dim, pure=kind == "psi0")
    if val is None and spec.default is None:  # an optional key left unset
        return None
    problem = None
    if kind == "choice" and val not in bound:
        problem = f"expected {' or '.join(map(repr, bound))}"
    elif kind == "text" and not (isinstance(val, str) and val):
        problem = "expected a non-empty string"
    elif kind == "param" and family is not None and val not in list(family.params):
        problem = f"expected one of {list(family.params)}"
    elif kind == "param" and family is not None and isinstance(family.params[val], int):
        problem = "an integer parameter fixes the model size and cannot be swept"
    elif kind == "pair" and not (
            isinstance(val, list) and len(val) == 2 and val[0] != val[1]
            and all(isinstance(b, int) and not isinstance(b, bool) and b >= 0 for b in val)):
        problem = "expected two distinct non-negative integers"
    elif kind in ("number", "positive", "integer"):
        if not _is_number(val):
            problem = "expected a number"
        elif kind == "integer" and isinstance(val, float) and not val.is_integer():
            problem = "expected an integer"
        elif kind == "positive" and not val > 0:
            problem = "must be > 0"
        elif kind == "integer":
            lo, stop = bound if isinstance(bound, tuple) else (bound, math.inf)
            if val < lo:
                problem = f"must be >= {lo}"
            elif val >= stop:
                problem = f"must be < {stop}"
    if problem:
        errors.append(f"{where}: {problem}, got {val!r}")
        return None
    if kind in ("number", "positive", "integer"):
        return int(val) if kind == "integer" else float(val)
    return tuple(val) if kind == "pair" else val


def _state(errors, where, state, dim, pure):
    """The initial state a rho0 (pure False) or psi0 (pure True) value names,
    resolved against the model dimension dim: a density matrix, a unit
    vector, or "steady" (read from the analysis at run time).  Without a
    built model (dim None) only a preset's name is checked."""
    named = ("ground", "excited") + (() if pure else ("maximally-mixed", "steady"))
    basis = isinstance(state, str) and state.startswith("basis:") and state[6:].isdigit()
    if isinstance(state, str) and not (basis or state in named):
        errors.append(f"{where}: expected one of {', '.join(named)}, basis:<k> or a "
                      f"nested list of [re, im] pairs, got {state!r}")
        return None
    if dim is None or state == "steady":
        return state
    if state == "maximally-mixed":
        return np.eye(dim, dtype=complex) / dim
    if isinstance(state, str):
        k = int(state[6:]) if basis else 0 if state == "ground" else dim - 1
        if k >= dim:
            errors.append(f"{where}: basis index {k} out of range for dimension {dim}")
            return None
        vec = np.zeros(dim, dtype=complex)
        vec[k] = 1.0
        return vec if pure else np.outer(vec, vec.conj())
    try:
        arr = np.asarray(_pairs(state), dtype=complex)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None
    if arr.shape != ((dim,) if pure else (dim, dim)):
        errors.append(f"{where}: shape {arr.shape} does not match dimension {dim}")
    elif pure and not 0 < np.linalg.norm(arr) < np.inf:
        errors.append(f"{where}: expected a nonzero finite vector, got {state!r}")
    else:
        return arr / np.linalg.norm(arr) if pure else arr
    return None


def _pairs(nested):
    """Nested lists of [re, im] pairs as nested lists of complex numbers."""
    if isinstance(nested, list) and len(nested) == 2 and all(map(_is_number, nested)):
        return complex(nested[0], nested[1])
    if isinstance(nested, list):
        return [_pairs(x) for x in nested]
    raise ValueError(f"state entries must be [re, im] pairs, got {nested!r}")


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _header(cfg: RunConfig, extra: dict | None = None) -> list[str]:
    tolerances = cfg.raw.get("tolerances", {})  # as given, defaults not filled in
    lines = [
        f"# lioueps {cfg.command}",
        f"# config = {json.dumps(cfg.raw, sort_keys=True, separators=(',', ':'))}",
        f"# convention = {CONVENTION}",
        f"# tolerances = {json.dumps(tolerances, sort_keys=True, separators=(',', ':'))}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"# {key} = {val}")
    return lines


def _write_csv(cfg: RunConfig, path: str, names, blocks, extra: dict | None = None):
    """Write one data file: header, column names, then one row per entry.

    blocks is an iterable of column lists, written one after another, so
    that a caller can build its columns one block at a time.  Integer
    columns are written as %d and every other column with 17 significant
    digits, so each float reads back exactly.  csvrows formats each block
    as bytes by whole-array arithmetic, one bounded chunk of rows at a
    time, and formats a column that holds one value in a block (the param
    of a grid point's rows) once.
    """
    from .csvrows import block_rows

    with open(path, "wb") as fh:
        fh.write("\n".join(_header(cfg, extra) + [",".join(names), ""]).encode("utf-8"))
        for columns in blocks:
            fh.writelines(block_rows(columns))


def _spectrum_family(cfg: RunConfig):
    param = cfg.values.get(("sweep", "param"))  # spectrum: the family's own
    if cfg["config", "operator"] == "nhh":
        return cfg.family.nhh_family(param)
    return cfg.family.liouvillian_family(param, zero_tol=cfg["tolerances", "zero_tol"])


def _write_branches(cfg: RunConfig, prefix: str, grid, systems) -> list[str]:
    """Eigenvalue and overlap tables, one block per grid point.

    systems[k] is the eigensystem at grid[k].  Eigenvalue rows run in
    (|Re|, Im, branch) order.  Overlap rows are the pairs i < j whose
    vectors share support at that point (support_overlaps), row-major,
    built one grid point at a time; every other pair has overlap exactly
    0 and is left out, as a header line of the file states.
    """
    from .ep_detect import support_overlaps

    n = systems[0].size
    grid = np.asarray(grid, dtype=float)
    order = [np.lexsort((np.arange(n), s.eigenvalues.imag, np.abs(s.eigenvalues.real)))
             for s in systems]
    vals = np.concatenate([s.eigenvalues[o] for s, o in zip(systems, order)])
    eig_path = f"{prefix}_eigenvalues.csv"
    _write_csv(cfg, eig_path, ["param", "index", "re_lambda", "im_lambda", "branch_id"],
               [[np.repeat(grid, n), np.tile(np.arange(n), grid.size),
                 vals.real, vals.imag, np.concatenate(order)]])

    def overlap_rows(g, system):
        i, j, ovl = support_overlaps(system)
        return [np.full(i.size, g), i, j, ovl]

    ovl_path = f"{prefix}_overlaps.csv"
    _write_csv(cfg, ovl_path, ["param", "i", "j", "overlap"], map(overlap_rows, grid, systems),
               {"omitted": "every pair i < j not listed has overlap exactly 0 (disjoint supports)"})
    return [eig_path, ovl_path]


def _observable_columns(model: LindbladModel):
    if model.dim != 2:
        return []
    q = build_qubit_ops()
    return [(name, q[name].matrix) for name in ("sigma_x", "sigma_y", "sigma_z")]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_spectrum(cfg: RunConfig, prefix: str) -> list[str]:
    spec_family = _spectrum_family(cfg)
    param_val = cfg.family.params[spec_family.param_name]
    return _write_branches(cfg, prefix, [param_val], spec_family.eigensystem(np.array([param_val])))


def _run_sweep(cfg: RunConfig, prefix: str) -> list[str]:
    from .ep_detect import sweep

    spec_family = _spectrum_family(cfg)
    grid = np.linspace(cfg["sweep", "from"], cfg["sweep", "to"], cfg["sweep", "steps"])
    result = sweep(spec_family, grid)
    return _write_branches(cfg, prefix, result.grid, result.systems)


def _run_ep_locate(cfg: RunConfig, prefix: str) -> list[str]:
    from .ep_detect import locate_ep

    report = locate_ep(
        _spectrum_family(cfg), (cfg["sweep", "from"], cfg["sweep", "to"]),
        branch_pair=cfg["ep", "branch_pair"],
        param_tol=cfg["tolerances", "param_tol"],
        rank_tol=cfg["tolerances", "rank_tol"],
        coarse_points=max(cfg["sweep", "steps"], 5))
    payload = {
        "config": cfg.raw,
        "convention": CONVENTION,
        "operator": cfg["config", "operator"],
        "model": cfg.family.name,
        "ep": report.to_dict(),
    }
    path = f"{prefix}_ep.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path]


def _run_dynamics(cfg: RunConfig, prefix: str) -> list[str]:
    from .dynamics import propagate_expm, propagate_modes

    model = cfg.family.build()
    generator, method, rho0 = (cfg["dynamics", key] for key in ("generator", "method", "rho0"))
    liou = (assemble_liouvillian(model) if generator == "liouvillian"
            else assemble_liouvillian_no_jumps(model))
    spec = None
    if method == "modes" or isinstance(rho0, str):
        # one analysis of the full generator serves the steady rho0 and the
        # mode expansion (parse_config admits modes only for the full one)
        from .spectral import analyze_liouvillian

        full = liou if generator == "liouvillian" else assemble_liouvillian(model)
        spec = analyze_liouvillian(full, cfg["tolerances", "zero_tol"],
                                   cfg["tolerances", "defect_tol"])
    rho0 = spec.steady_state if isinstance(rho0, str) else Operator(model.space, rho0)
    times = np.linspace(0.0, cfg["dynamics", "t_max"], cfg["dynamics", "n_times"])
    prop = (propagate_modes(spec, rho0, times) if method == "modes"
            else propagate_expm(liou, rho0, times))
    cols = _observable_columns(model)
    names = ["time", "trace_re", "purity"]
    names += [f"p{k}" for k in range(model.dim)]
    names += [name for name, _ in cols]
    columns = [times, prop.traces().real, prop.purities()]
    columns += list(np.diagonal(prop.states, axis1=1, axis2=2).real.T)
    columns += [[np.trace(mat @ s).real for s in prop.states] for _, mat in cols]
    path = f"{prefix}_dynamics.csv"
    _write_csv(cfg, path, names, [columns], {"generator": generator, "method": method})
    return [path]


def _run_trajectories(cfg: RunConfig, prefix: str) -> list[str]:
    from .dynamics import trajectories

    model = cfg.family.build()
    n_traj, dt = cfg["trajectories", "n_traj"], cfg["trajectories", "dt"]
    seed = cfg["trajectories", "seed"]
    ens = trajectories(model, cfg["trajectories", "psi0"], n_traj=n_traj, dt=dt,
                       t_max=cfg["trajectories", "t_max"], seed=seed,
                       n_samples=cfg["trajectories", "n_samples"])
    cols = _observable_columns(model)
    names = ["time", "survival"]
    names += [f"p{k}_mean" for k in range(model.dim)]
    pops, means, stderrs = ens.statistics([Operator(model.space, mat) for _, mat in cols])
    columns = [ens.times, ens.survival, *pops.T]
    for (name, _), mean, stderr in zip(cols, means, stderrs):
        names += [f"{name}_mean", f"{name}_stderr"]
        columns += [mean, stderr]
    path = f"{prefix}_dynamics.csv"
    _write_csv(cfg, path, names, [columns],
               {"seed": seed, "n_traj": n_traj, "dt": f"{dt:.17g}"})
    return [path]


def execute(cfg: RunConfig, output_dir: str | None = None, threads: int = 1,
            seed_override: int | None = None, stream=None) -> int:
    """Run a validated configuration; returns the process exit status.

    seed_override replaces trajectories.seed and is checked like that
    key: ConfigError outside [0, 2**64) or for a command that reads no
    seed.

    threads is accepted and ignored: sweeps run serially, and the keyword
    stays only because the benchmark worker (perfbench/worker.py) passes it.
    """
    stream = stream if stream is not None else sys.stdout
    if seed_override is not None:
        spec, errors = _KEYS["trajectories"]["seed"], []
        if cfg.command not in spec.readers:
            errors.append(f"--seed: not allowed for the {cfg.command} command "
                          f"(read by: {', '.join(spec.readers)})")
        seed = _value(errors, "--seed", seed_override, spec, None, None)
        if errors:
            raise ConfigError(errors)
        cfg = replace(cfg, values={**cfg.values, ("trajectories", "seed"): seed})
    if cfg.command == "verify":
        from .verify import run_verification

        lines, ok = run_verification()
        for line in lines:
            print(line, file=stream)
        return 0 if ok else 5

    prefix = cfg["config", "output"]
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        prefix = os.path.join(output_dir, prefix)

    files = {"spectrum": _run_spectrum, "sweep": _run_sweep, "ep-locate": _run_ep_locate,
             "dynamics": _run_dynamics, "trajectories": _run_trajectories}[cfg.command](cfg, prefix)
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
