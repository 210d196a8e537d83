import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_the_thread_count_and_one_row_of_medians_per_side():
    # ... and the frozen forward's tracemalloc peak in MiB
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "step_bench.py"),
                          "--sides", "16", "--repeats", "1"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # pinned to one thread, as perfbench pins it (None where OpenBLAS cannot be asked)
    assert lines[0] in ("blas_threads 1", "blas_threads None")
    assert lines[1].split() == ["side", "forward_ms", "evaluate_ms", "step_ms",
                                "forward_peak_mib"]
    assert re.fullmatch(r"\s*16(\s+\d+\.\d\d){4}", lines[2])
    assert 0 < float(lines[2].split()[-1]) < 1  # a 16x16 float32 forward
    assert len(lines) == 3
