"""Workload definitions of the lioueps benchmark.

Each workload is one CLI config built from the benchmark seed.  The seed
draws model parameters from fixed ranges (and, for trajectories, the
trajectory seed); bracket width, grid sizes, cutoffs and step counts are
constants, so the amount of work does not depend on the seed.  Why each
workload exists, and which layer metric should move which end-to-end
metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# ep-locate-l3: the bracket is centred on the EP, so with an odd number of
# coarse points the middle grid point lands on it (see README.md: the
# search fails when the EP falls between grid points)
EP_BRACKET_WIDTH = 0.2
EP_COARSE_POINTS = 33

TRAJ_N = 2000
TRAJ_DT = 1e-3
TRAJ_T_MAX = 5.0
TRAJ_SAMPLES = 51


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # which direct-call layer path and output check apply
    make_config: Callable[[random.Random, int], dict]

    def config(self, seed: int) -> dict:
        return self.make_config(random.Random(f"{self.name}:{seed}"), seed)


def _ep_locate_l3(rng: random.Random, seed: int) -> dict:
    omega = rng.uniform(0.8, 1.2)
    gamma_a = rng.uniform(0.9, 1.2)
    gamma_b = rng.uniform(0.3, 0.5)
    lo = (gamma_a - gamma_b) / 4 - EP_BRACKET_WIDTH / 2
    return {
        "command": "ep-locate",
        "model": {"name": "example3", "omega": omega, "gamma_a": gamma_a,
                  "gamma_b": gamma_b, "levels": 3},
        "sweep": {"param": "g", "from": lo, "to": lo + EP_BRACKET_WIDTH,
                  "steps": EP_COARSE_POINTS},
        "output": "ep",
    }


def _spectrum_l5(rng: random.Random, seed: int) -> dict:
    return {
        "command": "spectrum",
        "model": {"name": "example3", "omega": rng.uniform(0.8, 1.2),
                  "g": rng.uniform(0.3, 0.5), "gamma_a": rng.uniform(0.9, 1.2),
                  "gamma_b": rng.uniform(0.3, 0.5), "levels": 5},
        "output": "spec",
    }


def _spectrum_dephasing30(rng: random.Random, seed: int) -> dict:
    return {
        "command": "spectrum",
        "model": {"name": "dephasing", "omega": rng.uniform(0.5, 1.5),
                  "gamma": rng.uniform(0.5, 1.5), "levels": 30},
        "output": "spec",
    }


def _trajectories_ex2(rng: random.Random, seed: int) -> dict:
    return {
        "command": "trajectories",
        "model": {"name": "example2", "omega_x": rng.uniform(0.5, 1.5),
                  "gamma_minus": rng.uniform(0.5, 2.0)},
        "trajectories": {"psi0": "excited", "n_traj": TRAJ_N, "dt": TRAJ_DT,
                         "t_max": TRAJ_T_MAX, "seed": seed,
                         "n_samples": TRAJ_SAMPLES},
        "output": "traj",
    }


WORKLOADS = {w.name: w for w in (
    Workload("ep-locate-l3", "ep-locate", _ep_locate_l3),
    Workload("spectrum-l5", "spectrum", _spectrum_l5),
    Workload("spectrum-dephasing30", "spectrum", _spectrum_dephasing30),
    Workload("trajectories-ex2", "trajectories", _trajectories_ex2),
)}
