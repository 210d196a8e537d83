import importlib.util
import json
import re
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def record(workload, seed, trace=0, main_s=1.0, failures=(), sha="abc"):
    """A record as perfbench/run.py writes it, cut to the fields the script reads."""
    metric = "tensor.relu.fwd_s" if trace else "main_s"
    return {"workload": workload, "seconds": 20, "trace": trace,
            "environment": {"python": "3.11.7", "git_sha": sha, "seed": seed},
            "failures": list(failures),
            "result": {"correct": not failures, "attempted": 10, "failed": len(failures),
                       "metrics": {metric: {"value": main_s, "unit": "s"}}}}


def write(tmp_path, records):
    for i, r in enumerate(records):
        (tmp_path / f"{i}.json").write_text(json.dumps(r))
    return [str(tmp_path / f"{i}.json") for i in range(len(records))]


def test_collates_each_workloads_seeds_spread_and_traced_run(tmp_path):
    # seed 3 failed its check, and stays in the record as it is
    records = [record("train_smoke", s, main_s=v, failures=["val DSC 0.0 < 0.70"] * (s == 3))
               for s, v in zip((1, 2, 3, 4, 5), (5.0, 1.0, 1.0, 2.0, 4.0))]
    records.append(record("train_smoke", 1, trace=1, main_s=0.5))
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--seeds", "1", "2", "3", "4", "5", "--out", str(out),
                              *write(tmp_path, records)]) == 0
    bench = json.loads(out.read_text())
    assert bench["git_sha"] == "abc"
    assert bench["environment"] == {"python": "3.11.7", "git_sha": "abc"}
    smoke = bench["workloads"]["train_smoke"]
    assert [s["seed"] for s in smoke["seeds"]] == [1, 2, 3, 4, 5]
    assert [s["correct"] for s in smoke["seeds"]] == [True, True, False, True, True]
    assert smoke["seeds"][2]["failures"] == ["val DSC 0.0 < 0.70"]
    main_s = smoke["end_to_end"]["main_s"]
    assert main_s["values"] == [5.0, 1.0, 1.0, 2.0, 4.0]
    assert (main_s["median"], main_s["q1"], main_s["q3"]) == (2.0, 1.0, 4.5)
    assert main_s["iqr"] == 3.5
    assert smoke["traced"]["seed"] == 1 and smoke["traced"]["correct"]
    assert smoke["traced"]["per_layer"] == {"tensor.relu.fwd_s": {"value": 0.5, "unit": "s"}}


@pytest.mark.parametrize("records, refusal", [
    ([record("infer_256", 1), record("infer_256", 2, sha="def"), record("infer_256", 1, 1)],
     r"1\.json: environment git_sha is 'def', but 'abc' in .*0\.json"),
    ([record("infer_256", 1), record("infer_256", 1), record("infer_256", 1, 1)],
     "1.json: a second untraced record of infer_256 seed 1"),
    ([record("infer_256", 1), record("infer_256", 3), record("infer_256", 1, 1)],
     r"1\.json: seed 3 is not one of the declared \[1, 2\]"),
    ([record("infer_256", 1), record("infer_256", 1, 1)],
     r"infer_256: no untraced record of seeds \[2\]"),
    ([record("infer_256", 1), record("infer_256", 2)], "infer_256: no traced record"),
], ids=["other-commit", "twice", "undeclared-seed", "missing-seed", "no-traced"])
def test_refuses_records_that_break_a_rule(tmp_path, capsys, records, refusal):
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--seeds", "1", "2", "--out", str(out),
                              *write(tmp_path, records)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(refusal, err), err
    assert not out.exists()
