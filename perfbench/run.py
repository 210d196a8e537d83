"""Run one vesseldistill benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload train_smoke --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` measures the end-to-end metrics. `--trace 1` runs the workload
once untraced and once with spans around every layer's public calls, and
prints the per-layer metrics, including the tracing overhead. `all` runs
every workload, each in a fresh process. The last line of standard output
is one JSON object; the full record, with the environment, is also written
to .bench_results/. See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # pinned before numpy loads, for steady timings
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("train_smoke", "infer_256")
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_s": "s",
    "infer_ms_p50": "ms",
    "predict_ms_p50": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import vesseldistill from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import vesseldistill
    except ImportError as exc:
        raise SystemExit(f"error: cannot import vesseldistill from {ROOT / 'src'}: {exc}")
    where = Path(vesseldistill.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"error: vesseldistill imported from {where}, not from this checkout")


def run_session(name, seed, seconds, workdir, tracer=None):
    import workloads

    session = workloads.Session(seed, seconds, workdir, tracer)
    gc.collect()
    if tracer is not None:
        tracer.enable()
    try:
        workloads.WORKLOADS[name](session)
    finally:
        if tracer is not None:
            tracer.disable()
    session.report_latencies()
    return session


def measure(name, seed, seconds, trace, workdir):
    """Returns (result line, full record)."""
    import envinfo
    import layers
    from spans import Tracer

    untraced = run_session(name, seed, seconds, workdir / "untraced")
    sessions = [untraced]
    if trace:
        tracer = Tracer()
        instrumentation = layers.Instrumentation(tracer)
        instrumentation.install()
        try:
            traced = run_session(name, seed, seconds, workdir / "traced", tracer)
        finally:
            instrumentation.uninstall()
        sessions.append(traced)
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"{name}-seed{seed}-spans.npz")
        metrics = instrumentation.metrics()
        metrics["tensor.sgemm_peak_gflops"] = layers.sgemm_peak_gflops()
        metrics["trace.overhead_share"] = traced.values["main_s"] / untraced.values["main_s"] - 1.0
        units = {k: layers.unit_of(k) for k in metrics}
    else:
        metrics = dict(untraced.values)
        metrics["setup_s"] = statistics.median(untraced.setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {k: E2E_UNITS[k] for k in metrics}

    attempted = sum(s.attempted for s in sessions)
    failures = [f for s in sessions for f in s.failures]
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in sorted(metrics)},
    }
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "environment": envinfo.environment(ROOT, seed),
        "info": untraced.info,
        "setup_times_s": untraced.setup_times,
        "failures": failures,
        "result": line,
    }
    return line, record


def run_all(args):
    """Every workload in its own process, so peak RSS belongs to one workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("error: --seconds must be at least 1")
    import_program()
    if args.workload == "all":
        return run_all(args)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        line, record = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} | "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} "
          f"with {env['blas_threads']} thread(s), nproc {env['nproc']}, {env['cpu']}")
    for key, value in record["info"].items():
        print(f"#   {key} = {value}")
    for key, metric in line["metrics"].items():
        print(f"{key:40s} {metric['value']:>14.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
