"""One workload process of the lioueps benchmark.

Started by run.py in a fresh interpreter with BLAS threads pinned.  It
parses the workload config with `lioueps.cli.parse_config`, then repeats
`lioueps.cli.execute` until the time budget is used up:

  --trace 0  times each `execute` (run_s samples) and records peak RSS
             after the first;
  --trace 1  additionally repeats each `execute` inside a span and makes
             the same compute calls directly (layers.py), giving the
             per-layer metrics and the tracing overhead.

The reference kernel of speed.py is timed before the first repetition
and after every one.

Every repetition must write byte-identical files.  After the timed loop
the output files are checked against independent references (checks.py).
The result is printed as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

MIN_REPS = 3
MIN_TRACED_REPS = 2


def _digest(out_dir: str) -> tuple[dict, int]:
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def _environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "LIOUEPS_THREADS")},
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import lioueps
    from lioueps.cli import execute, parse_config
    if not os.path.abspath(lioueps.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"lioueps imported from {lioueps.__file__}, not from {src}")

    import speed
    from checks import CHECKS
    from workloads import WORKLOADS
    kind = WORKLOADS[args.workload].kind

    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    raw = json.loads(text)
    cfg = parse_config(text)
    os.makedirs(args.out_dir, exist_ok=True)

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer
        tracer = Tracer()

    run_s, traced_s, failures = [], [], []
    first_digest, bytes_written, extras = None, 0, {}
    attempted = 0

    def run_once(span_name=None) -> float | None:
        """One execute; returns its duration, or None when it failed."""
        nonlocal attempted, first_digest, bytes_written
        attempted += 1
        sink = io.StringIO()
        try:
            if span_name is None:
                t0 = time.perf_counter()
                rc = execute(cfg, output_dir=args.out_dir, threads=1, stream=sink)
                elapsed = time.perf_counter() - t0
            else:
                with tracer.span(span_name) as rec:
                    rc = execute(cfg, output_dir=args.out_dir, threads=1, stream=sink)
                elapsed = tracer.duration(rec)
        except Exception as exc:        # reported as a failed operation
            failures.append(f"execute raised {type(exc).__name__}: {exc}")
            return None
        if rc != 0:
            failures.append(f"execute returned exit status {rc}")
            return None
        digest, size = _digest(args.out_dir)
        if first_digest is None:
            first_digest, bytes_written = digest, size
        elif digest != first_digest:
            failures.append(f"repetition {attempted} wrote files that differ from the first")
            return None
        return elapsed

    def repetition() -> bool:
        """One timed execute; traced runs add a traced execute (the two in
        alternating order) and the direct layer calls."""
        nonlocal attempted
        if tracer is None:
            order = (None,)
        else:
            tracer.run_id = len(run_s)
            order = (None, "cli.execute") if len(run_s) % 2 == 0 else ("cli.execute", None)
        for span_name in order:
            elapsed = run_once(span_name)
            if elapsed is None:
                return False
            (run_s if span_name is None else traced_s).append(elapsed)
        if tracer is not None:
            attempted += 1
            try:
                extras.update(layers.DIRECT[kind](tracer, raw))
            except Exception as exc:    # reported as a failed operation
                failures.append(f"direct {kind} calls raised {type(exc).__name__}: {exc}")
                return False
        return True

    speed.warm_up()
    ref_s = [speed.reference_s()]       # one before, then one after each repetition
    deadline = time.perf_counter() + args.seconds
    ok, last, peak_rss_mb = True, 0.0, None
    min_reps = MIN_REPS if tracer is None else MIN_TRACED_REPS
    while ok and (len(run_s) < min_reps or time.perf_counter() + last <= deadline):
        t_rep = time.perf_counter()
        ok = repetition()
        if peak_rss_mb is None:
            # a CLI process runs one execute; later repetitions add heap
            # fragmentation that varies from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_s.append(speed.reference_s())
        last = time.perf_counter() - t_rep

    check_failures = []
    if not failures:
        try:
            check_failures = CHECKS[kind](raw, args.out_dir)
        except Exception as exc:        # unreadable output counts as wrong output
            check_failures = [f"output check raised {type(exc).__name__}: {exc}"]
    failed = len(failures)
    if check_failures:
        # every repetition wrote these same bytes, so every one is wrong
        failures += check_failures
        failed = attempted

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "run_s": run_s,
        "ref_s": ref_s,
        "peak_rss_mb": peak_rss_mb,
        "bytes_written": bytes_written,
        "environment": _environment(),
    }
    if tracer is not None and not failures:
        result["layers"] = layer_metrics(args.workload, kind, raw, tracer, run_s,
                                         traced_s, bytes_written, extras)
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def layer_metrics(workload, kind, raw, tracer, run_s, traced_s, bytes_written,
                  extras) -> dict:
    import layers

    med = statistics.median
    execute_s = tracer.per_run("cli.execute")
    direct_s = tracer.per_run("direct")
    analyze = tracer.median_per_call("spectral.analyze")
    eig_floor = tracer.median_per_call("spectral.eig_floor")
    calls = tracer.per_run("models.eigensystem", lambda s: 1.0)
    m = {
        "cli.self_s": med(e - d for e, d in zip(execute_s, direct_s)),
        "cli.bytes_written": bytes_written,
        "models.eigensystem_calls": med(calls) if calls else 0,
        "models.eigensystem_s": tracer.median_per_run("models.eigensystem"),
        "models.matrix_s": tracer.median_per_run("models.matrix"),
        "superop.assemble_s": tracer.median_per_run("superop.assemble"),
        "spectral.analyze_s": analyze,
        "spectral.eig_floor_s": eig_floor,
        "spectral.overhead_ratio": analyze / eig_floor if eig_floor else 0.0,
        "spectral.defect_flags": 0,
        "spectral.biorth_resid": 0.0,
        "ep_detect.locate_self_s": tracer.median_per_run("ep_detect.locate",
                                                         tracer.self_time),
        "ep_detect.refine_evals": 0,
        "ep_detect.jordan_s": tracer.median_per_run("ep_detect.jordan"),
        "ep_detect.offgrid_failed": 0,
        "dynamics.trajectories_s": tracer.median_per_run("dynamics.trajectories"),
        "dynamics.ns_per_traj_step": 0.0,
        "dynamics.jumps_per_traj": extras.get("jumps_per_traj", 0.0),
        "trace.overhead_s": med(traced_s) - med(run_s),
    }
    for n in (16, 81, 256, 625):
        m[f"spectral.overhead_ratio_n{n}"] = 0.0
    if kind == "spectrum":
        m["spectral.defect_flags"], m["spectral.biorth_resid"] = \
            layers.defect_stats(extras["spectrum"])
    if kind == "ep-locate":
        m["ep_detect.refine_evals"] = m["models.eigensystem_calls"] - raw["sweep"]["steps"]
        m["ep_detect.offgrid_failed"] = int(layers.offgrid_ep_fails(raw))
    if kind == "trajectories":
        m["dynamics.ns_per_traj_step"] = (m["dynamics.trajectories_s"]
                                          / extras["traj_steps"] * 1e9)
    if workload == layers.LADDER_WORKLOAD:
        for n, (an, eg) in layers.overhead_ladder(tracer).items():
            m[f"spectral.overhead_ratio_n{n}"] = an / eg
    return m


if __name__ == "__main__":
    sys.exit(main())
