import importlib
import json
import os
import subprocess
import sys
import tempfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lioueps
from lioueps.cli import COMMANDS, RunConfig, _KEYS, _write_branches, _write_csv, main, parse_config
from lioueps.csvrows import _CHUNK_BYTES, UNIT
from lioueps.dynamics import trajectories
from lioueps.ep_detect import Eigensystem, overlap_matrix, sweep
from lioueps.errors import ConfigError
from lioueps.models import example1_closed_form, family_names, get_family
from lioueps.ops_core import build_qubit_ops
from lioueps.spectral import liouvillian_eigensystem
from lioueps.superop import assemble_liouvillian
from conftest import assert_one_eig_per_orbit, assert_overlap_rows, random_lindblad_model


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


OMITTED_LINE = "# omitted = every pair i < j not listed has overlap exactly 0 (disjoint supports)"


def overlap_rows(path, grid):
    """The rows of an overlaps file as one (i, j, overlap) triple of arrays
    per grid point, after checking the header line on omitted pairs and
    that the rows come in one block per grid point, in grid order."""
    with open(path, encoding="utf-8") as fh:
        assert OMITTED_LINE in [line.rstrip("\n") for line in fh]
    header, rows = read_rows(path)
    assert header == ["param", "i", "j", "overlap"]
    params = [float(r[0]) for r in rows]
    blocks = []
    for g in grid:
        block = [r for r in rows if float(r[0]) == g]
        blocks.append(tuple(np.array([conv(r[c]) for r in block], dtype=conv)
                            for c, conv in ((1, int), (2, int), (3, float))))
    assert params == [float(g) for g, (i, _, _) in zip(grid, blocks) for _ in i]
    return blocks


class TestParseConfig:
    def test_valid_ep_locate_config(self):
        cfg = parse_config(json.dumps({
            "command": "ep-locate",
            "model": {"name": "example2", "omega_x": 1.0},
            "sweep": {"param": "gamma_minus", "from": 3, "to": 5, "steps": 64},
        }))
        assert cfg.command == "ep-locate"
        assert cfg.family.name == "example2"
        assert cfg["sweep", "param"] == "gamma_minus"
        assert cfg["sweep", "steps"] == 64

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({
                "command": "sweep",
                "model": {"name": "example2", "gamma_minus": -0.5, "junk": 1},
                "sweep": {"param": "gamma_minus", "from": 2.0, "to": 1.0, "steps": 1},
                "mystery": True,
            }))
        text = "\n".join(err.value.messages)
        assert "unknown key 'mystery'" in text
        assert "unknown key 'junk'" in text
        assert "gamma_minus" in text and ">= 0" in text
        assert "'to' must exceed 'from'" in text
        assert "steps" in text

    def test_unknown_model_lists_families(self):
        with pytest.raises(ConfigError, match="available families"):
            parse_config(json.dumps({
                "command": "spectrum", "model": {"name": "qubitron"}}))

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config(json.dumps({"command": "explode"}))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1, column"):
            parse_config("{oops}")

    def test_levels_must_be_integer(self):
        with pytest.raises(ConfigError, match="levels"):
            parse_config(json.dumps({
                "command": "spectrum",
                "model": {"name": "example3", "levels": 2.5}}))

    def test_branch_pair_validation(self):
        with pytest.raises(ConfigError, match="branch_pair"):
            parse_config(json.dumps({
                "command": "ep-locate",
                "model": {"name": "example2"},
                "sweep": {"param": "gamma_minus", "from": 3, "to": 5, "steps": 9},
                "ep": {"branch_pair": [1, 1]}}))
        cfg = parse_config(json.dumps({
            "command": "ep-locate",
            "model": {"name": "example2"},
            "sweep": {"param": "gamma_minus", "from": 3, "to": 5, "steps": 9},
            "ep": {"branch_pair": [2, 3]}}))
        assert cfg["ep", "branch_pair"] == (2, 3)

    @pytest.mark.parametrize("operator, pair, n", [
        ("liouvillian", [2, 7], 4), ("nhh", [0, 2], 2)])
    def test_branch_pair_out_of_range_is_refused(self, tmp_path, capsys, eig_calls,
                                                  operator, pair, n):
        # refused from the model dimension alone, before any eigensolve
        cfg = write_config(tmp_path, {
            "command": "ep-locate", "operator": operator, "model": {"name": "example2"},
            "sweep": {"param": "gamma_minus", "from": 1, "to": 5, "steps": 9},
            "ep": {"branch_pair": pair}, "output": "pair"})
        assert main([cfg, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config.ep.branch_pair" in err and f"has {n} branches" in err
        assert eig_calls == []

    @pytest.mark.parametrize("command", ["sweep", "ep-locate"])
    @pytest.mark.parametrize("grid", [(2, 4, 3), (2, 3, 4)], ids=["integer", "fractional"])
    def test_integer_parameter_cannot_be_swept(self, tmp_path, capsys, eig_calls,
                                               command, grid):
        # levels fixes the model size: no branch continues across its grid
        cfg = write_config(tmp_path, {
            "command": command, "model": {"name": "example3", "levels": 2},
            "sweep": dict(zip(("param", "from", "to", "steps"), ("levels",) + grid)),
            "output": "levels"})
        assert main([cfg, "--output-dir", str(tmp_path)]) == 2
        assert "config.sweep.param: an integer parameter" in capsys.readouterr().err
        assert eig_calls == []
        # the registry table decides, not the type of the value given
        parse_config(json.dumps({
            "command": "sweep", "model": {"name": "example2", "omega_x": 2},
            "sweep": {"param": "omega_x", "from": 1, "to": 2, "steps": 3}}))

    def test_verify_rejects_model_key(self):
        with pytest.raises(ConfigError, match="not allowed"):
            parse_config(json.dumps({
                "command": "verify", "model": {"name": "example2"}}))

    def test_psi0_steady_is_reported_with_the_other_findings(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({
                "command": "trajectories", "model": {"name": "example2"},
                "trajectories": {"psi0": "steady", "n_traj": 0, "dt": 1e-3, "t_max": 1}}))
        text = "\n".join(err.value.messages)
        assert "config.trajectories.psi0" in text and "'steady'" in text
        assert "config.trajectories.n_traj: must be >= 1" in text

    @pytest.mark.parametrize("seed, problem", [
        (-1, "must be >= 0"), (2**64, "must be < 18446744073709551616"),
        (2.0**64, "must be < 18446744073709551616")])
    def test_seed_outside_the_philox_key_word_is_refused(self, seed, problem):
        payload = {"command": "trajectories", "model": {"name": "example2"},
                   "trajectories": {"n_traj": 1, "dt": 1e-3, "t_max": 1, "seed": seed}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(payload))
        assert err.value.messages == [f"config.trajectories.seed: {problem}, got {seed!r}"]
        payload["trajectories"]["seed"] = 2**64 - 1
        assert parse_config(json.dumps(payload))["trajectories", "seed"] == 2**64 - 1


# one valid value for every key of the config table
SWEEP = {"param": "gamma_minus", "from": 1.0, "to": 2.0, "steps": 3}
VALID = {
    ("config", "model"): {"name": "example2", "omega_x": 2.0},
    ("config", "operator"): "nhh",
    ("config", "output"): "run",
    ("sweep", "param"): "omega_x",
    ("sweep", "from"): 0.5,
    ("sweep", "to"): 4.0,
    ("sweep", "steps"): 9,
    ("ep", "branch_pair"): [2, 3],
    ("dynamics", "rho0"): "ground",
    ("dynamics", "t_max"): 2.0,
    ("dynamics", "n_times"): 3,
    ("dynamics", "method"): "modes",
    ("dynamics", "generator"): "no-jump",
    ("trajectories", "psi0"): "ground",
    ("trajectories", "n_traj"): 3,
    ("trajectories", "dt"): 1e-2,
    ("trajectories", "t_max"): 0.5,
    ("trajectories", "seed"): 4,
    ("trajectories", "n_samples"): 3,
    ("tolerances", "zero_tol"): 1e-9,
    ("tolerances", "defect_tol"): 1e-5,
    ("tolerances", "param_tol"): 1e-7,
    ("tolerances", "rank_tol"): 1e-6,
}
# the smallest valid config of each command
BASE = {
    "spectrum": {"model": {"name": "example2"}},
    "sweep": {"model": {"name": "example2"}, "sweep": SWEEP},
    "ep-locate": {"model": {"name": "example2"}, "sweep": SWEEP},
    "dynamics": {"model": {"name": "example2"}, "dynamics": {"t_max": 1.0}},
    "trajectories": {"model": {"name": "example2"},
                     "trajectories": {"n_traj": 2, "dt": 1e-3, "t_max": 0.1}},
    "verify": {},
}
# what each command reads; every other key is refused
_SPECTRUM_READS = {"config.model", "config.operator", "config.output", "tolerances.zero_tol"}
_SWEEP_READS = _SPECTRUM_READS | {f"sweep.{k}" for k in ("param", "from", "to", "steps")}
READS = {
    "spectrum": _SPECTRUM_READS,
    "sweep": _SWEEP_READS,
    "ep-locate": _SWEEP_READS | {"ep.branch_pair", "tolerances.param_tol",
                                 "tolerances.rank_tol"},
    # the tolerances too, but only with method modes or rho0 steady (SETTINGS)
    "dynamics": {"config.model", "config.output"} | {f"dynamics.{k}" for k in (
        "rho0", "t_max", "n_times", "method", "generator")},
    "trajectories": {"config.model", "config.output"} | {f"trajectories.{k}" for k in (
        "psi0", "n_traj", "dt", "t_max", "seed", "n_samples")},
    "verify": set(),
}


# tolerances whose reading depends on other keys: (command, those keys,
# tolerance, whether it is read); H_eff has no zero sector, and expm from a
# given rho0 runs no eigenanalysis
SETTINGS = [(command, {"operator": "nhh"}, "zero_tol", False)
            for command in ("spectrum", "sweep", "ep-locate")]
SETTINGS += [("dynamics", {"dynamics": {"t_max": 1.0, **dyn}}, key, read)
             for dyn, read in (({"method": "modes"}, True), ({"rho0": "steady"}, True),
                               ({"rho0": "ground"}, False),
                               ({"generator": "no-jump"}, False))
             for key in ("zero_tol", "defect_tol")]


def with_key(command, section, key):
    payload = {"command": command, **json.loads(json.dumps(BASE[command]))}
    target = payload if section == "config" else payload.setdefault(section, {})
    target[key] = VALID[section, key]
    return payload


class TestConfigTable:
    def test_every_table_key_has_a_valid_value(self):
        table = {(s, k) for s, keys in _KEYS.items() for k in keys} | {("config", "model")}
        assert set(VALID) == table

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("section, key", list(VALID))
    def test_read_keys_accepted_and_unread_keys_refused(self, command, section, key):
        name = f"{section}.{key}"
        path = f"config.{key}" if section == "config" else f"config.{name}"
        text = json.dumps(with_key(command, section, key))
        if name in READS[command]:
            cfg = parse_config(text)
            if key != "model":
                assert cfg[section, key] is not None
            return
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [m for m in err.value.messages
                if m.startswith(f"{path}: not allowed for the {command} command")]

    @pytest.mark.parametrize("command, settings, key, read", SETTINGS)
    def test_tolerances_read_only_where_an_analysis_uses_them(self, command, settings,
                                                               key, read):
        text = json.dumps({**with_key(command, "tolerances", key), **settings})
        if read:
            assert parse_config(text)["tolerances", key] == VALID["tolerances", key]
            return
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [m for m in err.value.messages if m.startswith(
            f"config.tolerances.{key}: not allowed for the {command} command with")]

    def test_nhh_operator_on_dynamics_is_refused(self, tmp_path, capsys):
        # dynamics picks its generator with dynamics.generator; "nhh" used to
        # be accepted here and the full Liouvillian ran anyway
        assert "config.operator" not in READS["dynamics"]
        cfg = write_config(tmp_path, with_key("dynamics", "config", "operator"))
        assert main([cfg, "--output-dir", str(tmp_path)]) == 2
        assert "config.operator: not allowed for the dynamics command" in capsys.readouterr().err
        assert not (tmp_path / "lioueps_dynamics.csv").exists()


class TestCliRuns:
    def test_sweep_reproduces_closed_form_branch_data(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "sweep",
            "model": {"name": "example1", "omega": 1.0, "gamma_y": 2.0,
                      "gamma_minus": 0.0},
            "sweep": {"param": "gamma_x", "from": 0.0, "to": 4.0, "steps": 21},
            "output": "ex1",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "ex1_eigenvalues.csv")
        assert header == ["param", "index", "re_lambda", "im_lambda", "branch_id"]
        by_param = {}
        for row in rows:
            by_param.setdefault(float(row[0]), []).append(
                float(row[2]) + 1j * float(row[3]))
        assert len(by_param) == 21
        for gx, vals in by_param.items():
            expected = example1_closed_form(1.0, 0.0, gx, 2.0)["lambdas"]
            for want in expected:
                assert min(abs(v - want) for v in vals) <= 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        payload = {
            "command": "sweep",
            "model": {"name": "example2", "omega_x": 1.0},
            "sweep": {"param": "gamma_minus", "from": 0.5, "to": 3.5, "steps": 11},
            "output": "rep",
        }
        cfg = write_config(tmp_path, payload)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([cfg, "--output-dir", str(out_a)]) == 0
        assert main([cfg, "--output-dir", str(out_b)]) == 0
        for suffix in ("rep_eigenvalues.csv", "rep_overlaps.csv"):
            assert (out_a / suffix).read_bytes() == (out_b / suffix).read_bytes()

    def test_ep_locate_example3_single_excitation(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "ep-locate",
            "operator": "nhh",
            "model": {"name": "example3", "omega": 1.0, "gamma_a": 1.0,
                      "gamma_b": 0.5, "levels": 2},
            "sweep": {"param": "g", "from": 0.05, "to": 0.25, "steps": 33},
            "output": "ex3",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "ex3_ep.json").read_text())
        assert payload["ep"]["param_value"] == pytest.approx(0.125, abs=1e-6)
        assert payload["ep"]["overlap_at_ep"] >= 1 - 1e-6
        assert payload["config"]["model"]["name"] == "example3"

    def test_ep_locate_liouvillian_example2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "ep-locate",
            "model": {"name": "example2", "omega_x": 1.0},
            "sweep": {"param": "gamma_minus", "from": 3, "to": 5, "steps": 33},
            "output": "lep",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "lep_ep.json").read_text())
        assert payload["ep"]["param_value"] == pytest.approx(4.0, abs=1e-6)
        assert payload["ep"]["order_estimate"] == 2

    def test_ep_locate_scans_at_least_five_coarse_points(self, tmp_path):
        # sweep.steps is the coarse scan's point count, raised to 5 when
        # smaller: steps 2 and 5 run the same search
        blocks = []
        for steps in (2, 5):
            cfg = write_config(tmp_path, {
                "command": "ep-locate",
                "model": {"name": "example2", "omega_x": 1.0},
                "sweep": {"param": "gamma_minus", "from": 3.1, "to": 5.3, "steps": steps},
                "output": f"steps{steps}",
            })
            assert main([cfg, "--output-dir", str(tmp_path)]) == 0
            blocks.append(json.loads((tmp_path / f"steps{steps}_ep.json").read_text())["ep"])
        assert blocks[0] == blocks[1]
        assert blocks[0]["param_value"] == pytest.approx(4.0, abs=1e-6)

    def test_dynamics_output_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "dynamics": {"rho0": "excited", "t_max": 2.0, "n_times": 9},
            "output": "dyn",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "dyn_dynamics.csv")
        assert header == ["time", "trace_re", "purity", "p0", "p1",
                          "sigma_x", "sigma_y", "sigma_z"]
        assert len(rows) == 9
        assert float(rows[0][7]) == pytest.approx(-1.0)   # starts excited
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-10)

    def test_trajectories_roundtrip_and_seed_override(self, tmp_path):
        payload = {
            "command": "trajectories",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "trajectories": {"psi0": "excited", "n_traj": 40, "dt": 1e-3,
                             "t_max": 1.0, "seed": 7, "n_samples": 6},
            "output": "tr",
        }
        cfg = write_config(tmp_path, payload)
        out_a = tmp_path / "a"
        assert main([cfg, "--output-dir", str(out_a)]) == 0
        out_b = tmp_path / "b"
        assert main([cfg, "--output-dir", str(out_b)]) == 0
        assert ((out_a / "tr_dynamics.csv").read_bytes()
                == (out_b / "tr_dynamics.csv").read_bytes())
        out_c = tmp_path / "c"
        assert main([cfg, "--output-dir", str(out_c), "--seed", "8"]) == 0
        assert ((out_a / "tr_dynamics.csv").read_bytes()
                != (out_c / "tr_dynamics.csv").read_bytes())
        header, rows = read_rows(out_a / "tr_dynamics.csv")
        assert header[:2] == ["time", "survival"]
        surv = [float(r[1]) for r in rows]
        assert all(s1 >= s2 for s1, s2 in zip(surv, surv[1:]))

    def test_spectrum_command(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "spectrum",
            "model": {"name": "dephasing", "omega": 1.0, "gamma": 1.0, "levels": 3},
            "output": "spec",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "spec_eigenvalues.csv")
        assert len(rows) == 9
        # L is diagonal, so no two eigenvectors share support: no rows, and
        # each of the 36 omitted pairs is exactly 0
        [(i, j, ovl)] = overlap_rows(tmp_path / "spec_overlaps.csv", [1.0])
        assert i.size == 0
        family = get_family("dephasing", omega=1.0, gamma=1.0, levels=3)
        assert_overlap_rows(i, j, ovl, family.liouvillian_family().eigensystem(np.array([1.0]))[0])

    def test_float_formatting_has_17_significant_digits(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "spectrum",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "output": "fmt",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "fmt_eigenvalues.csv")
        values = {row[3] for row in rows}
        assert any(len(v.replace("-", "").replace(".", "").lstrip("0")) >= 16
                   for v in values)


class TestCliVariants:
    def test_dynamics_modes_method_from_steady_state(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "dynamics": {"rho0": "steady", "t_max": 2.0, "n_times": 5,
                         "method": "modes"},
            "output": "st",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "st_dynamics.csv")
        # stationary input stays put
        first = [float(x) for x in rows[0]]
        last = [float(x) for x in rows[-1]]
        assert np.allclose(first[1:], last[1:], atol=1e-9)

    @pytest.mark.parametrize("method", ["modes", "expm"])
    def test_dynamics_from_steady_state_takes_one_eig(self, tmp_path, eig_calls, method):
        # the steady rho0 and the mode expansion come from one analysis of L:
        # one left-and-right eig per sector of size >= 2
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example3", "levels": 3},
            "dynamics": {"rho0": "steady", "t_max": 1.0, "n_times": 3,
                         "method": method},
            "output": "st1",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        family = get_family("example3", levels=3).liouvillian_family()
        assert_one_eig_per_orbit(eig_calls, family.matrix(0.1), left=True)

    def test_modes_method_refuses_the_no_jump_generator(self, tmp_path, capsys):
        # L' has no steady state to expand around: refused before any analysis
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "dynamics": {"rho0": "excited", "t_max": 1.0, "n_times": 5,
                         "method": "modes", "generator": "no-jump"},
            "output": "njm",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config.dynamics.method" in err and "'expm'" in err
        assert not os.path.exists(tmp_path / "njm_dynamics.csv")

    def test_dynamics_no_jump_generator_loses_trace(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "dynamics": {"rho0": "excited", "t_max": 4.0, "n_times": 9,
                         "generator": "no-jump"},
            "output": "nj",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "nj_dynamics.csv")
        traces = [float(r[1]) for r in rows]
        assert traces[0] == pytest.approx(1.0, abs=1e-12)
        assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))
        assert traces[-1] < 0.9

    def test_modes_method_refuses_at_the_ep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 4.0},
            "dynamics": {"rho0": "excited", "t_max": 1.0, "n_times": 5,
                         "method": "modes"},
            "output": "epdyn",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 4

    def test_boson_model_trajectories_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "trajectories",
            "model": {"name": "dephasing", "omega": 1.0, "gamma": 0.5, "levels": 3},
            "trajectories": {"psi0": "basis:2", "n_traj": 10, "dt": 1e-2,
                             "t_max": 0.5, "seed": 4, "n_samples": 4},
            "output": "bos",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "bos_dynamics.csv")
        assert header == ["time", "survival", "p0_mean", "p1_mean", "p2_mean"]
        # number jumps keep the Fock state pinned
        assert float(rows[-1][4]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rho0, status", [("basis:1", 0), ("basis:7", 2)])
    def test_basis_rho0(self, tmp_path, capsys, rho0, status):
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "dephasing", "omega": 1.0, "gamma": 0.5, "levels": 3},
            "dynamics": {"rho0": rho0, "t_max": 1.0, "n_times": 3},
            "output": "bas",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == status
        if status:
            assert "basis index 7 out of range for dimension 3" in capsys.readouterr().err
        else:
            header, rows = read_rows(tmp_path / "bas_dynamics.csv")
            assert [float(rows[0][header.index(f"p{k}")]) for k in range(3)] == [0, 1, 0]

    def test_bad_rho0_is_refused_before_any_eig(self, tmp_path, capsys, eig_calls):
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example3", "levels": 3},
            "dynamics": {"rho0": "basis:99", "t_max": 1.0, "n_times": 3,
                         "method": "modes"},
            "output": "b99",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 2
        assert "basis index 99 out of range for dimension 9" in capsys.readouterr().err
        assert eig_calls == []

    @pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
    def test_seed_override_is_checked_like_the_config_key(self, tmp_path, capsys, seed,
                                                          code):
        # --seed -1 used to exit 1 with an internal error, and 2**64 exit 0
        cfg = write_config(tmp_path, {
            "command": "trajectories", "model": {"name": "example2"},
            "trajectories": {"n_traj": 2, "dt": 1e-3, "t_max": 0.1}, "output": "s"})
        assert main([cfg, "--output-dir", str(tmp_path), "--seed", str(seed)]) == code
        assert (tmp_path / "s_dynamics.csv").exists() == (code == 0)
        if code:
            assert "config error: --seed: must be" in capsys.readouterr().err

    def test_seed_override_is_refused_where_no_seed_is_read(self, tmp_path, capsys, eig_calls):
        cfg = write_config(tmp_path, {"command": "spectrum", "model": {"name": "example2"},
                                      "output": "sp"})
        assert main([cfg, "--output-dir", str(tmp_path), "--seed", "5"]) == 2
        assert ("config error: --seed: not allowed for the spectrum command "
                "(read by: trajectories)") in capsys.readouterr().err
        assert eig_calls == [] and not (tmp_path / "sp_eigenvalues.csv").exists()

    def test_zero_psi0_is_refused(self, tmp_path, capsys):
        # normalising a zero vector gave NaN rows and exit 0
        cfg = write_config(tmp_path, {
            "command": "trajectories",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "trajectories": {"psi0": [[0, 0], [0, 0]], "n_traj": 4, "dt": 1e-3,
                             "t_max": 0.1},
            "output": "zero",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 2
        assert "config.trajectories.psi0" in capsys.readouterr().err
        assert not (tmp_path / "zero_dynamics.csv").exists()

    def test_tolerance_overrides_are_applied(self, tmp_path):
        # an absurdly loose zero tolerance swallows every eigenvalue into
        # the steady sector and must change the analysis outcome
        cfg = write_config(tmp_path, {
            "command": "spectrum",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "tolerances": {"zero_tol": 100.0},
            "output": "tol",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "tol_overlaps.csv")
        # the whole zero sector was orthonormalized: all overlaps vanish
        assert all(float(r[3]) <= 1e-8 for r in rows)

    def test_explicit_matrix_rho0(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "dynamics",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "dynamics": {"rho0": [[[0.5, 0], [0, 0.2]], [[0, -0.2], [0.5, 0]]],
                         "t_max": 1.0, "n_times": 3},
            "output": "mat",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "mat_dynamics.csv")
        assert float(rows[0][3]) == pytest.approx(0.5)


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "spectrum",
                                      "model": {"name": "example2", "omega_x": -1}})
        assert main([cfg]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "omega_x" in err

    @pytest.mark.parametrize("command, section", [
        ("spectrum", {"model": {"name": "example2", "gamma_minus": float("nan")}}),
        ("sweep", {"model": {"name": "example2"},
                   "sweep": {"param": "gamma_minus", "from": 1, "to": float("inf"),
                             "steps": 3}}),
        ("trajectories", {"model": {"name": "example2"},
                          "trajectories": {"psi0": [[float("nan"), 0], [1, 0]],
                                           "n_traj": 2, "dt": 1e-3, "t_max": 0.1}}),
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, command, section):
        # json reads NaN and Infinity; they used to end in an internal error
        cfg = write_config(tmp_path, {"command": command, **section})
        assert main([cfg, "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("section, code, message", [
        # the builder is parse_config's range check, so a Hamiltonian that
        # overflows is a config error there, and a model error where a sweep
        # reaches it
        ({"model": {"name": "dephasing", "omega": 1.7e308}}, 2,
         "config error: config.model: the Hamiltonian overflows"),
        ({"command": "sweep", "model": {"name": "dephasing"},
          "sweep": {"param": "omega", "from": 1.0, "to": 1.7e308, "steps": 3}}, 3,
         "model error: the Hamiltonian overflows"),
        # a finite L whose self-conjugate sector overflows in the Hermitian basis
        ({"model": {"name": "example3", "levels": 2, "g": 1.7e308}}, 4,
         "analysis error: the sector of index 0 overflows in the Hermitian basis"),
        ({"model": {"name": "example1", "omega": 1.7e308}}, 4,
         "analysis error: the sector of index 1 overflows in the Hermitian basis"),
    ], ids=["dephasing-omega", "dephasing-omega-sweep", "example3-g", "example1-omega"])
    def test_overflowing_parameters_are_refused(self, tmp_path, capsys, section, code, message):
        # each of these exited 1 with an internal error: a ValueError from
        # Operator, or eig's LinAlgError on infs
        cfg = write_config(tmp_path, {"command": "spectrum", **section, "output": "big"})
        assert main([cfg, "--output-dir", str(tmp_path)]) == code
        assert message in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["/nonexistent/path.json"]) == 2

    def test_analysis_error_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "ep-locate",
            "model": {"name": "example2", "omega_x": 1.0},
            "sweep": {"param": "gamma_minus", "from": 0.1, "to": 1.0, "steps": 9},
            "operator": "nhh",
            "output": "none",
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 4

    @pytest.mark.parametrize("command, section", [
        ("spectrum", {}),
        ("sweep", {"sweep": {"param": "gamma_minus", "from": 1.0, "to": 2.0, "steps": 3}}),
        ("ep-locate", {"sweep": {"param": "gamma_minus", "from": 3.0, "to": 5.0,
                                 "steps": 9}}),
        ("dynamics", {"dynamics": {"rho0": "steady", "t_max": 1.0, "n_times": 3}}),
    ])
    def test_zero_tol_applies_to_every_liouvillian_analysis(self, tmp_path, capsys,
                                                             command, section):
        # no eigenvalue is within 1e-300 of zero, so the analysis must refuse
        cfg = write_config(tmp_path, {
            "command": command,
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "tolerances": {"zero_tol": 1e-300},
            "output": "tol",
            **section,
        })
        assert main([cfg, "--output-dir", str(tmp_path)]) == 4
        assert "analysis error" in capsys.readouterr().err

    def test_verify_exit_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "verify"})
        assert main([cfg]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASSED" in out
        assert "vacuum-column-identity" in out
        assert "kraus-richardson-ratio" in out
        assert "prefactor-reading" in out
        assert "coefficient-ordering" in out


def fresh_python(code, *args):
    """The stdout of code run in a fresh interpreter that imports this
    checkout's lioueps; fails on a nonzero exit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lioueps.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


COLD_START = """
import json, sys
import lioueps
from lioueps.cli import main, parse_config


def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("lioueps."))


out, parse_only, groups = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
for path in parse_only + [p for group in groups for p in group]:
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
report = [loaded()]
for group in groups:
    codes = [main([p, "--output-dir", out]) for p in group]
    report.append([codes, loaded(), "scipy" in sys.modules])
print(json.dumps(report))
"""
# the submodules that `import lioueps` and parse_config of any command load
PARSE_MODULES = ["cli", "errors", "models", "ops_core", "superop"]


class TestColdStart:
    """The test process has every module loaded already, so a fresh
    interpreter imports lioueps, parses the configs, then runs groups of
    them through main one group after another; it reports the lioueps
    submodules loaded after parsing, and after each group the exit codes,
    the submodules and whether scipy is loaded."""

    @staticmethod
    def cold_start(tmp_path, parse_only, groups):
        stdout = fresh_python(COLD_START, str(tmp_path), json.dumps(parse_only),
                              json.dumps(groups))
        return json.loads(stdout.splitlines()[-1])

    @staticmethod
    def config(tmp_path, command, **sections):
        name = f"run{len(list(tmp_path.iterdir()))}"  # written before any run
        return write_config(tmp_path, {
            "command": command, "model": {"name": "example3", "levels": 2},
            "output": name, **sections}, name=f"{name}.json")

    def evolutions(self, tmp_path):
        return [self.config(tmp_path, "trajectories",
                            trajectories={"n_traj": 2, "dt": 1e-3, "t_max": 0.1}),
                self.config(tmp_path, "dynamics", dynamics={"t_max": 1.0, "n_times": 3})]

    def test_spectra_sweeps_and_ep_search_never_import_scipy(self, tmp_path):
        # parsing every command's config loads no compute module; spectrum,
        # sweep and ep-locate on both operators then run with numpy alone
        # and load neither dynamics nor verify; trajectories and dynamics
        # load scipy
        grid = {"param": "g", "from": 0.05, "to": 0.25, "steps": 9}
        spectral = [self.config(tmp_path, command, operator=operator,
                                **({} if command == "spectrum" else {"sweep": grid}))
                    for operator in ("liouvillian", "nhh")
                    for command in ("spectrum", "sweep", "ep-locate")]
        verify = write_config(tmp_path, {"command": "verify"}, name="verify.json")
        parsed, (codes, modules, scipy_loaded), (evolved, _, _) = self.cold_start(
            tmp_path, [verify], [spectral, self.evolutions(tmp_path)])
        assert parsed == PARSE_MODULES
        assert codes == [0] * 6
        assert {"spectral", "ep_detect"} <= set(modules)
        assert not {"dynamics", "verify"} & set(modules)
        assert not scipy_loaded
        assert evolved == [0, 0]

    def test_trajectories_never_load_the_spectral_modules(self, tmp_path):
        # nor does dynamics by expm from a given state, which runs no
        # eigenanalysis
        trajectories, dynamics = self.evolutions(tmp_path)
        parsed, (codes, modules, _), (evolved, after, _) = self.cold_start(
            tmp_path, [], [[trajectories], [dynamics]])
        assert parsed == PARSE_MODULES
        assert codes == [0] and evolved == [0]
        assert "dynamics" in modules
        assert not {"spectral", "ep_detect", "verify"} & set(modules)
        assert not {"spectral", "ep_detect", "verify"} & set(after)


# every name that `import lioueps` bound before the compute modules loaded
# lazily, by the module that defines it
PUBLIC_API = {
    "errors": ["ConfigError", "HermiticityError", "JordanOrderError", "LiouepsError",
               "ModelBuildError", "NoEPBracketedError", "SpaceMismatchError", "SpectralError"],
    "ops_core": ["HermitianDecomposition", "HilbertSpace", "Operator", "build_boson_ops",
                 "build_qubit_ops", "hermitian_spectral_decomposition", "hs_inner", "hs_norm",
                 "tensor"],
    "superop": ["LindbladModel", "SuperOp", "apply_liouvillian", "assemble_liouvillian",
                "assemble_liouvillian_no_jumps", "devectorize", "dissipator_superop",
                "effective_hamiltonian", "jump_superop", "kraus_step", "left_action",
                "right_action", "vectorize"],
    "spectral": ["Eigensystem", "LemmaReport", "NhhSpectrum", "Spectrum", "analyze_liouvillian",
                 "analyze_nhh", "check_lemmas", "liouvillian_eigensystem",
                 "liouvillian_eigensystems", "nhh_eigensystem", "nhh_eigensystems",
                 "pm_decomposition", "sym_antisym"],
    "ep_detect": ["EPReport", "SpectrumFamily", "SweepResult", "jordan_chain", "locate_ep",
                  "overlap_matrix", "sweep"],
    "models": ["ModelFamily", "dephasing", "example1", "example2", "example3", "family_names",
               "get_family", "sigma_z_expectations"],
    "dynamics": ["Propagation", "TrajectoryEnsemble", "ep_decay_fit", "propagate_expm",
                 "propagate_modes", "trajectories"],
}


class TestPublicApi:
    @pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC_API.items()
                                              for n in names])
    def test_name_is_the_defining_modules_object(self, module, name):
        defining = importlib.import_module(f"lioueps.{module}")
        assert getattr(lioueps, name) is getattr(defining, name)
        assert name in lioueps.__all__ and name in dir(lioueps)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from lioueps import *", namespace)
        for module, names in PUBLIC_API.items():
            defining = importlib.import_module(f"lioueps.{module}")
            for name in names:
                assert namespace[name] is getattr(defining, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'lioueps' has no attribute 'spectrm'"):
            lioueps.spectrm
        assert not hasattr(lioueps, "_LIOUEPS_UNKNOWN")

    def test_from_import_returns_the_submodules(self):
        # in a fresh interpreter, where neither is loaded before
        fresh_python("import sys, lioueps\n"
                     "from lioueps import dynamics, spectral\n"
                     "assert spectral is sys.modules['lioueps.spectral']\n"
                     "assert dynamics is sys.modules['lioueps.dynamics']\n"
                     "assert lioueps.ep_detect is sys.modules['lioueps.ep_detect']\n")


# ---------------------------------------------------------------------------
# what the CSV writer must produce
# ---------------------------------------------------------------------------

def reference_line(row):
    """The documented row format: integers as-is, floats with 17 significant digits."""
    return ",".join(str(x) if isinstance(x, int) else f"{float(x):.17g}" for x in row)


def written_lines(path):
    """Non-metadata lines of a CLI data file, header first."""
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -7.0, 2.0 ** 53, 0.1]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2 ** 60, 2 ** 60).map(float))
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
TIED_PARTS = st.sampled_from([0.0, -0.0, 0.5, -0.5, -1.0])


class TestCsvWriter:
    cfg = RunConfig(command="sweep", raw={"command": "sweep"})

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), kinds=st.lists(st.booleans(), min_size=1, max_size=5),
           constant=st.lists(st.booleans(), min_size=5, max_size=5))
    def test_rows_match_reference_formatter(self, data, kinds, constant):
        # a column marked constant repeats its first row's value, which the
        # writer formats once; with every column constant (a one-row block,
        # say) the row format holds no field, and the rows are still written
        rows = data.draw(st.lists(st.tuples(*[INTS if k else FLOATS for k in kinds]),
                                  max_size=30))
        rows = [tuple(rows[0][c] if constant[c] else x for c, x in enumerate(r)) for r in rows]
        columns = [np.array([r[c] for r in rows], dtype=np.int64 if k else float)
                   for c, k in enumerate(kinds)]
        names = [f"c{c}" for c in range(len(kinds))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            _write_csv(self.cfg, path, names, [columns], {"extra": 1})
            lines = written_lines(path)
            with open(path, encoding="utf-8") as fh:
                assert "# extra = 1\n" in fh.readlines()
        assert lines == [",".join(names)] + [reference_line(r) for r in rows]

    def lines(self, blocks):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            _write_csv(self.cfg, path, [f"c{c}" for c in range(len(blocks[0]))], blocks)
            return written_lines(path)[1:]

    def assert_floats(self, values):
        values = np.asarray(values, dtype=float)
        assert self.lines([[values]]) == ["%.17g" % v for v in values.tolist()]

    def test_values_that_tie_half_way_at_the_17th_digit(self):
        # m 2^-j with m odd is m 5^j 10^-j exactly, whose last digit is 5:
        # with 18 significant digits the 17-digit rounding is an exact tie,
        # broken to the even neighbour
        rng = np.random.default_rng(7)
        ties = []
        for j in range(3, 25):
            lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
            odd = rng.integers(lo, hi, 200) | 1
            ties += (np.ldexp(odd, -j) * rng.choice([-1, 1], 200)).tolist()
        assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties)
        self.assert_floats(ties)

    def test_neighbours_of_the_powers_of_ten(self):
        powers = [float(f"1e{k}") for k in range(-12, 18)]
        near = [np.nextafter(np.nextafter(p, 0), 0) for p in powers]
        near += [np.nextafter(p, side) for p in powers for side in (0, np.inf)] + powers
        near += [np.nextafter(np.nextafter(p, np.inf), np.inf) for p in powers]
        self.assert_floats(near + [-x for x in near])

    def test_edges_and_special_values(self):
        # the kernel covers 1e-10 <= |x| < 1e15; zero, subnormals, the
        # largest values and non-finite ones lie outside it
        edges = [1e-10, np.nextafter(1e-10, 0), 1e15, np.nextafter(1e15, 0),
                 np.nextafter(1e15, np.inf), np.nextafter(1e-10, 1)]
        special = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                   1e308, np.finfo(float).max, np.inf, np.nan]
        self.assert_floats(edges + special + [-x for x in edges + special])

    def test_int64_extremes(self):
        info = np.iinfo(np.int64)
        ints = np.array([info.min, info.min + 1, -1, 0, 1, 9, 10, info.max - 1, info.max])
        assert self.lines([[ints, ints[::-1].copy()]]) == [
            f"{a},{b}" for a, b in zip(ints.tolist(), ints[::-1].tolist())]

    def test_a_block_longer_than_one_chunk(self):
        rows = 3 * _CHUNK_BYTES // UNIT  # a row takes a unit or more: 3 chunks or more
        rng = np.random.default_rng(3)
        columns = [np.arange(rows) - rows // 2, rng.standard_normal(rows),
                   rng.integers(-10 ** 6, 10 ** 6, rows), np.exp(rng.uniform(-30, 40, rows))]
        assert self.lines([columns]) == [reference_line(r)
                                         for r in zip(*[c.tolist() for c in columns])]

    def test_blocks_with_their_own_constant_param(self):
        # as sweep writes them: a param column that is constant within each
        # block, with empty and one-row blocks between
        rng = np.random.default_rng(5)
        blocks, want = [], []
        for g, rows in zip(np.linspace(0.05, 0.25, 6), [4, 0, 1, 7, 3, 1]):
            cols = [np.full(rows, g), rng.integers(0, 50, rows), rng.integers(0, 50, rows),
                    rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 3, rows)]
            blocks.append(cols)
            want += [reference_line(r) for r in zip(*[c.tolist() for c in cols])]
        assert self.lines(blocks) == want

    def test_random_doubles_over_the_whole_exponent_range(self):
        bits = np.random.default_rng(11).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        self.assert_floats(bits.view(np.float64))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 10), points=st.integers(1, 3))
    def test_branch_rows_order_with_ties(self, data, n, points):
        rng = np.random.default_rng(n)
        grid = [0.25 * k for k in range(points)]
        systems = []
        for _ in grid:
            re = data.draw(st.lists(TIED_PARTS, min_size=n, max_size=n))
            im = data.draw(st.lists(TIED_PARTS, min_size=n, max_size=n))
            vecs = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
            # zero some entries, keeping one per column, so that some pairs
            # share no support
            keep = rng.random((3, n)) < 0.2
            keep[rng.integers(0, 3, n), np.arange(n)] = True
            vecs *= keep
            systems.append(Eigensystem(np.array(re) + 1j * np.array(im),
                                       vecs / np.linalg.norm(vecs, axis=0),
                                       np.zeros(n, dtype=bool)))
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(tmp, "b")
            _write_branches(self.cfg, prefix, grid, systems)
            eig_lines = written_lines(prefix + "_eigenvalues.csv")
            ovl_lines = written_lines(prefix + "_overlaps.csv")
            blocks = overlap_rows(prefix + "_overlaps.csv", grid)
        want_eig, want_ovl = [], []
        for g, sys_k, (i, j, listed) in zip(grid, systems, blocks):
            vals = sys_k.eigenvalues
            order = sorted(range(n), key=lambda i: (abs(vals[i].real), vals[i].imag, i))
            want_eig += [reference_line((g, pos, vals[b].real, vals[b].imag, b))
                         for pos, b in enumerate(order)]
            assert_overlap_rows(i, j, listed, sys_k)
            ovl = overlap_matrix(sys_k)
            want_ovl += [reference_line((g, int(a), int(b), ovl[a, b])) for a, b in zip(i, j)]
        assert eig_lines[1:] == want_eig
        assert ovl_lines[1:] == want_ovl


class TestCsvRoundTrip:
    def test_sweep_tables_equal_library_arrays(self, tmp_path):
        grid_spec = {"param": "gamma_minus", "from": 0.5, "to": 6.0, "steps": 7}
        cfg = write_config(tmp_path, {
            "command": "sweep", "model": {"name": "example2", "omega_x": 1.0},
            "sweep": grid_spec, "output": "rt"})
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        fam = get_family("example2", omega_x=1.0).liouvillian_family("gamma_minus")
        res = sweep(fam, np.linspace(0.5, 6.0, 7))
        eig_rows = []
        for k, g in enumerate(res.grid):
            vals = res.eigenvalues[k]
            order = sorted(range(vals.size), key=lambda i: (abs(vals[i].real), vals[i].imag, i))
            eig_rows += [(g, pos, vals[b].real, vals[b].imag, b) for pos, b in enumerate(order)]
        _, rows = read_rows(tmp_path / "rt_eigenvalues.csv")
        assert len(rows) == len(eig_rows)
        for row, ref in zip(rows, eig_rows):
            assert [float(x) for x in row] == [float(x) for x in ref]
        for system, (i, j, ovl) in zip(res.systems, overlap_rows(tmp_path / "rt_overlaps.csv",
                                                                 res.grid)):
            assert_overlap_rows(i, j, ovl, system)

    def test_trajectory_table_equals_library_arrays(self, tmp_path):
        cfg = write_config(tmp_path, {
            "command": "trajectories",
            "model": {"name": "example2", "omega_x": 1.0, "gamma_minus": 1.0},
            "trajectories": {"psi0": "excited", "n_traj": 30, "dt": 1e-3,
                             "t_max": 0.5, "seed": 3, "n_samples": 6},
            "output": "rt"})
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        model = get_family("example2", omega_x=1.0, gamma_minus=1.0).build()
        ens = trajectories(model, [0, 1], n_traj=30, dt=1e-3, t_max=0.5, seed=3,
                           n_samples=6)
        q = build_qubit_ops()
        want = [ens.times, ens.survival]
        want += [ens.ensemble_average[:, i, i].real for i in range(2)]
        for name in ("sigma_x", "sigma_y", "sigma_z"):
            want += ens.observable_stats(q[name])
        header, rows = read_rows(tmp_path / "rt_dynamics.csv")
        assert header == ["time", "survival", "p0_mean", "p1_mean",
                          "sigma_x_mean", "sigma_x_stderr", "sigma_y_mean",
                          "sigma_y_stderr", "sigma_z_mean", "sigma_z_stderr"]
        assert len(rows) == 6
        for k, row in enumerate(rows):
            assert [float(x) for x in row] == [float(col[k]) for col in want]


class TestOverlapRule:
    """Overlap files list exactly the pairs whose vectors share support."""

    cfg = RunConfig(command="sweep", raw={"command": "sweep"})

    def written(self, grid, systems):
        """Write systems with the CLI writer, check the rule at every grid
        point and return the listed row count of each."""
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(tmp, "o")
            _write_branches(self.cfg, prefix, grid, systems)
            blocks = overlap_rows(prefix + "_overlaps.csv", grid)
        for system, (i, j, ovl) in zip(systems, blocks):
            assert_overlap_rows(i, j, ovl, system)
        return [i.size for i, _, _ in blocks]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_models(self, seed):
        model = random_lindblad_model(np.random.default_rng(seed))
        system = liouvillian_eigensystem(assemble_liouvillian(model))
        n = system.size
        # a generic model is one sector: every pair is listed
        assert self.written([0.5], [system]) == [n * (n - 1) // 2]

    @pytest.mark.parametrize("operator", ["liouvillian", "nhh"])
    @pytest.mark.parametrize("name", family_names())
    def test_bundled_families(self, tmp_path, name, operator):
        cfg = write_config(tmp_path, {"command": "spectrum", "model": {"name": name},
                                      "operator": operator, "output": "fam"})
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        family = get_family(name)
        spec = (family.nhh_family() if operator == "nhh" else family.liouvillian_family())
        value = family.params[spec.param_name]
        [(i, j, ovl)] = overlap_rows(tmp_path / "fam_overlaps.csv", [value])
        assert_overlap_rows(i, j, ovl, spec.eigensystem(np.array([value]))[0])

    def test_sweep_through_zero_coupling(self, tmp_path):
        # at g = 0 the two modes decouple and the sectors split further, so
        # that point lists fewer rows than its neighbours
        cfg = write_config(tmp_path, {
            "command": "sweep", "model": {"name": "example3", "levels": 3},
            "sweep": {"param": "g", "from": 0.0, "to": 0.2, "steps": 3}, "output": "g0"})
        assert main([cfg, "--output-dir", str(tmp_path)]) == 0
        res = sweep(get_family("example3", levels=3).liouvillian_family(), [0.0, 0.1, 0.2])
        blocks = overlap_rows(tmp_path / "g0_overlaps.csv", res.grid)
        for system, (i, j, ovl) in zip(res.systems, blocks):
            assert_overlap_rows(i, j, ovl, system)
        counts = [i.size for i, _, _ in blocks]
        assert counts[0] < min(counts[1:])
