"""Output checks of the benchmark, against independently computed references.

The checks read the files the CLI wrote.  References are built here from
the model definitions (Hamiltonian and jump operators, row-major
vectorisation) with plain numpy/scipy, not through lioueps, so a defect
shared by the library and its own tests still shows.  Each check returns
a list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

# eigenvalues agree with the reference to this share of max |L_ij|; the
# agreement measured for lioueps 0.1.0 is ~2e-14 of it
EIG_RTOL = 1e-9
# trajectory means agree with the exact solution within TRAJ_K standard
# errors plus an O(dt) allowance of dt times the generator's rate scale
TRAJ_K = 5.0


def lindblad_matrix(h: np.ndarray, jumps) -> np.ndarray:
    """Row-major superoperator of -i[H, .] + sum_G D[G] (rates folded into G)."""
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for g in jumps:
        gdg = g.conj().T @ g
        out += np.kron(g, g.conj()) - 0.5 * np.kron(gdg, eye) - 0.5 * np.kron(eye, gdg.T)
    return out


def _lower(levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, levels)), k=1).astype(complex)


def example3_matrix(p: dict) -> np.ndarray:
    a1 = _lower(int(p["levels"]))
    one = np.eye(a1.shape[0])
    a, b = np.kron(a1, one), np.kron(one, a1)
    h = p["omega"] * (a.conj().T @ a + b.conj().T @ b) + p["g"] * (
        a.conj().T @ b + b.conj().T @ a)
    return lindblad_matrix(h, [np.sqrt(p["gamma_a"]) * a, np.sqrt(p["gamma_b"]) * b])


def example2_matrix(p: dict) -> np.ndarray:
    sm = np.array([[0, 1], [0, 0]], dtype=complex)      # |g><e|, basis (|g>, |e>)
    h = 0.5 * p["omega_x"] * (sm + sm.conj().T)
    return lindblad_matrix(h, [np.sqrt(p["gamma_minus"]) * sm])


def dephasing_eigenvalues(p: dict) -> np.ndarray:
    """Closed form -i omega (m - n) - gamma/2 (m - n)^2 over all m, n."""
    m = np.arange(int(p["levels"]))
    diff = m[:, None] - m[None, :]
    return (-1j * p["omega"] * diff - 0.5 * p["gamma"] * diff ** 2).ravel()


def read_table(path: str) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV file ('#' metadata lines skipped) by header name."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, k] for k, name in enumerate(header)}


def _multiset_mismatch(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest |got_i - ref_pi(i)| under the best one-to-one matching."""
    if got.size != ref.size:
        return float("inf")
    cost = np.abs(got[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_ep_locate(cfg: dict, out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, f"{cfg['output']}_ep.json"), encoding="utf-8") as fh:
        ep = json.load(fh)["ep"]
    p = cfg["model"]
    ref = (p["gamma_a"] - p["gamma_b"]) / 4
    errors = []
    if not abs(ep["param_value"] - ref) <= 1e-6:
        errors.append(f"EP at g={ep['param_value']!r}, expected {ref!r}")
    if ep["order_estimate"] != 2:
        errors.append(f"order_estimate {ep['order_estimate']}, expected 2")
    if not ep["chain_residual"] <= 1e-8:
        errors.append(f"chain_residual {ep['chain_residual']!r} > 1e-8")
    if not ep["overlap_at_ep"] >= 1 - 1e-6:
        errors.append(f"overlap_at_ep {ep['overlap_at_ep']!r} < 1 - 1e-6")
    return errors


def check_spectrum(cfg: dict, out_dir: str) -> list[str]:
    p = cfg["model"]
    tab = read_table(os.path.join(out_dir, f"{cfg['output']}_eigenvalues.csv"))
    got = tab["re_lambda"] + 1j * tab["im_lambda"]
    errors = []
    if p["name"] == "dephasing":
        ref = dephasing_eigenvalues(p)
        scale = float(np.abs(ref).max())
    else:
        mat = example3_matrix(p)
        ref = scipy.linalg.eigvals(mat)
        scale = float(np.abs(mat).max())
        errors += _check_unique_steady_state(mat, got, scale)
    mismatch = _multiset_mismatch(got, ref)
    if not mismatch <= EIG_RTOL * scale:
        errors.append(f"eigenvalues differ from the reference by {mismatch:.3g} "
                      f"> {EIG_RTOL * scale:.3g}")
    return errors


def _check_unique_steady_state(mat: np.ndarray, got: np.ndarray, scale: float) -> list[str]:
    """One zero eigenvalue in the output; the reference kernel is one trace-1 state."""
    errors = []
    n_zero = int(np.sum(np.abs(got) <= EIG_RTOL * scale))
    if n_zero != 1:
        errors.append(f"{n_zero} zero eigenvalues in the output, expected 1")
    _, s, vh = np.linalg.svd(mat)
    if int(np.sum(s <= 1e-10 * s[0])) != 1:
        errors.append("reference kernel is not one-dimensional")
        return errors
    d = int(round(np.sqrt(mat.shape[0])))
    rho = vh[-1].conj().reshape(d, d)
    tr = np.trace(rho)
    if abs(tr) < 1e-8:
        errors.append("reference steady state carries no trace")
        return errors
    rho = rho / tr
    if (np.abs(rho - rho.conj().T).max() > 1e-8
            or np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-8):
        errors.append("reference steady state is not a density matrix")
    return errors


def check_trajectories(cfg: dict, out_dir: str) -> list[str]:
    p, tr = cfg["model"], cfg["trajectories"]
    tab = read_table(os.path.join(out_dir, f"{cfg['output']}_dynamics.csv"))
    mat = example2_matrix(p)
    rho0 = np.diag([0.0, 1.0]).astype(complex).reshape(-1)      # "excited"
    exact = np.array([(scipy.linalg.expm(mat * t) @ rho0).reshape(2, 2)
                      for t in tab["time"]])
    # per trajectory p1 = (1 - <sigma_z>)/2, so its standard error is half
    se = 0.5 * tab["sigma_z_stderr"]
    allow = TRAJ_K * se + tr["dt"] * (p["omega_x"] + p["gamma_minus"])
    errors = []
    for k in range(2):
        dev = np.abs(tab[f"p{k}_mean"] - exact[:, k, k].real)
        bad = np.flatnonzero(~(dev <= allow))
        if bad.size:
            i = int(bad[0])
            errors.append(f"p{k}_mean at t={tab['time'][i]:g} is off by {dev[i]:.3g} "
                          f"> {allow[i]:.3g}")
    return errors


CHECKS = {
    "ep-locate": check_ep_locate,
    "spectrum": check_spectrum,
    "trajectories": check_trajectories,
}
