"""Benchmark of the lioueps CLI: one workload per call, or all of them.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
./src).  For the chosen workload it

  1. builds the CLI config from the seed (workloads.py);
  2. starts SETUP_PROBES fresh interpreters, each timing `import lioueps`
     plus `parse_config` with model validation (setup_s is their median,
     scaled to the reference speed of speed.py like run_s);
  3. starts one worker process (worker.py) that repeats `execute` for
     --seconds, checks the written files and, with --trace 1, records spans
     around direct calls into each module;
  4. prints the metrics with units, the environment, and as the last line
     one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics.  Every process runs with BLAS and sweep threads pinned
to 1, one at a time.  Scratch files go to .perfbench_work/ in the checkout.
README.md next to this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "LIOUEPS_THREADS": "1"}
# a single run must end within this many seconds
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _source_info() -> dict:
    """Commit (when the checkout is a git work tree) and a digest of the sources."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


def _metric_specs() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _setup_probes(config_path: str, env: dict, deadline: float) -> tuple[list, list]:
    samples, failures = [], []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "probe.py"), config_path],
                env=env, capture_output=True, text=True,
                timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            failures.append("setup probe timed out")
            break
        if proc.returncode != 0:
            failures.append(f"setup probe exited with {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            continue
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples, failures


def _worker(args, name: str, config_path: str, out_dir: str, spans_path: str,
            env: dict, deadline: float) -> tuple[dict | None, str | None]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--config", config_path,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--spans", spans_path]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    if proc.returncode != 0:
        return None, (f"worker exited with {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def run_workload(args, name: str, source: dict) -> dict:
    """Run one workload; returns the result record (also written to WORK)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tag = f"{name}-s{args.seed}-t{args.trace}"
    cfg = WORKLOADS[name].config(args.seed)
    config_path = os.path.join(WORK, f"{tag}.config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    out_dir = os.path.join(WORK, f"{tag}.out")
    shutil.rmtree(out_dir, ignore_errors=True)
    env = _env()

    probes, failures = _setup_probes(config_path, env, deadline)
    worker, worker_error = _worker(args, name, config_path, out_dir,
                                   os.path.join(WORK, f"{tag}.spans.json"), env, deadline)
    shutil.rmtree(out_dir, ignore_errors=True)

    attempted = SETUP_PROBES + (worker["attempted"] if worker else 1)
    failed = len(failures) + (worker["failed"] if worker else 1)
    failures += worker["failures"] if worker else [worker_error]

    setup_s = [p["import_s"] + p["parse_s"] for p in probes]
    probe_ref_s = [p["ref_s"] for p in probes]
    run_s = worker["run_s"] if worker else []
    run_ref_s = worker["ref_s"] if worker else []
    metrics = {}
    if args.trace:
        metrics.update(worker.get("layers", {}) if worker else {})
        if probes:
            metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
            metrics["cli.parse_s"] = statistics.median(p["parse_s"] for p in probes)
    else:
        if setup_s:
            metrics["setup_s"] = speed.at_reference(setup_s, probe_ref_s)
        if run_s:
            metrics["run_s"] = speed.at_reference(run_s, run_ref_s)
            metrics["peak_rss_mb"] = worker["peak_rss_mb"]

    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": cfg,
        "attempted": attempted, "failed": failed, "failures": failures,
        "setup_s_samples": setup_s,
        "run_s_samples": run_s,
        "probe_ref_s_samples": probe_ref_s,
        "run_ref_s_samples": run_ref_s,
        "metrics": metrics,
        "environment": dict(worker["environment"] if worker else {}, **source,
                            seed=args.seed),
        "wall_s": time.monotonic() - started,
    }
    with open(os.path.join(WORK, f"{tag}.result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def report(record: dict, units: dict):
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"({len(record['run_s_samples'])} execute repetitions, "
          f"{len(record['setup_s_samples'])} set-up probes, {record['wall_s']:.1f} s wall)")
    for key, value in record["metrics"].items():
        print(f"  {key:32s} {value:>14.6g} {units.get(key, '')}")
    def med(key):
        return statistics.median(record[key]) if record[key] else float("nan")
    print(f"  wall-clock medians: set-up {med('setup_s_samples'):.4g} s, "
          f"execute {med('run_s_samples'):.4g} s; reference kernel "
          f"{med('probe_ref_s_samples'):.4g} s (probes), {med('run_ref_s_samples'):.4g} s "
          f"(worker), scaled to {speed.REF_S} s")
    fail_frac = record["failed"] / record["attempted"]
    print(f"  {'fail_frac':32s} {fail_frac:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for msg in record["failures"]:
        print(f"  FAILED: {msg}")
    print(f"  env: {json.dumps(record['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "lioueps", "cli.py")):
        print(f"error: no lioueps sources under {os.path.join(ROOT, 'src')}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = _metric_specs()
    units = per_layer if args.trace else end_to_end
    os.makedirs(WORK, exist_ok=True)
    source = _source_info()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(args, name, source) for name in names]
    for rec in records:
        report(rec, units)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(set(r["metrics"]) == set(units) for r in records)
    if len(records) == 1:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in records[0]["metrics"].items() if k in units}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v, "unit": units[k]}
                   for r in records for k, v in r["metrics"].items() if k in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
