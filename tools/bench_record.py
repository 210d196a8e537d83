"""Collate perfbench records into one BENCH_<n>.json file.

Each `python3 perfbench/run.py --workload W --seed S --trace T` run writes its
full record to .bench_results/W-seedS-traceT.json. This script reads the
records named on its command line, all of one commit and environment, and
writes that environment once, the seed left out, and per workload:

- the declared seeds and, for each, `correct`, the counts and the failures;
- the median, quartiles and inter-quartile range of each end-to-end metric
  over those seeds' untraced runs, with each run's value;
- the outcome and per-layer metrics of the one traced run.

    python tools/bench_record.py --seeds 2601 2602 2603 2604 2605 --out BENCH_26.json \\
        .bench_results/*-seed260[1-5]-trace0.json .bench_results/*-seed2601-trace1.json

It refuses, naming the file, records of another commit or environment than the
first, a second record of one workload, seed and trace setting, an untraced
record of an undeclared seed, a declared seed without one, and a workload
without exactly one traced record. Failed checks are kept as they are.
Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def collate(records, seeds):
    """The BENCH file's content from (path, record) pairs; ValueError naming a record
    or seed that breaks a rule in the module docstring."""
    first_path, first = records[0]
    env = {k: v for k, v in first["environment"].items() if k != "seed"}
    runs, traced = {}, {}
    for path, record in records:
        for key in env.keys() | (record["environment"].keys() - {"seed"}):
            if record["environment"].get(key) != env.get(key):
                raise ValueError(f"{path}: environment {key} is "
                                 f"{record['environment'].get(key)!r}, but "
                                 f"{env.get(key)!r} in {first_path}")
        seed = record["environment"]["seed"]
        into = traced if record["trace"] else runs.setdefault(record["workload"], {})
        key = record["workload"] if record["trace"] else seed
        if key in into:
            raise ValueError(f"{path}: a second {'traced' if record['trace'] else 'untraced'} "
                             f"record of {record['workload']} seed {seed}")
        if not record["trace"] and seed not in seeds:
            raise ValueError(f"{path}: seed {seed} is not one of the declared {seeds}")
        into[key] = record
    workloads = {}
    for name in sorted(runs.keys() | traced.keys()):
        missing = [s for s in seeds if s not in runs.get(name, {})]
        if missing or name not in traced:
            raise ValueError(f"{name}: no untraced record of seeds {missing}" if missing
                             else f"{name}: no traced record")
        ordered = [runs[name][s] for s in seeds]
        workloads[name] = {
            "seconds": ordered[0]["seconds"],
            "seeds": [{"seed": s, **_outcome(r)} for s, r in zip(seeds, ordered)],
            "end_to_end": {metric: _spread([r["result"]["metrics"][metric] for r in ordered])
                           for metric in sorted(ordered[0]["result"]["metrics"])},
            "traced": {"seed": traced[name]["environment"]["seed"],
                       **_outcome(traced[name]),
                       "per_layer": traced[name]["result"]["metrics"]},
        }
    return {"git_sha": env.get("git_sha"), "environment": env, "workloads": workloads}


def _outcome(record):
    result = record["result"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "failures": record["failures"]}


def _spread(metrics):
    """Median, quartiles (statistics.quantiles, n=4) and Q3 - Q1 of one metric's runs."""
    values = [m["value"] for m in metrics]
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": metrics[0]["unit"], "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="the seeds every workload was run with, untraced")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("records", nargs="+", help="perfbench records (.bench_results/*.json)")
    args = parser.parse_args(argv)
    try:
        records = [(path, json.loads(Path(path).read_text())) for path in args.records]
        bench = collate(records, args.seeds)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {args.out}: {', '.join(bench['workloads'])} at {bench['git_sha']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
