"""The digest tool in ``tools/workload_digests.py``: one line per recording a
workload solves, and the same lines from two separate runs.

The tool runs in its own processes, as it is used, so the benchmark's
modules are never imported into the test process."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "workload_digests.py"


def test_one_line_per_recording_and_the_same_on_every_run():
    argv = [sys.executable, str(TOOL), "--workloads", "three_methods", "stream",
            "--seeds", "7", "--scale", "mini"]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300)
        .stdout.splitlines()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    # three_methods solves four recordings per seed, stream one
    assert [line.split()[:3] for line in runs[0]] == [
        ["three_methods", "7", "7"],
        ["three_methods", "7", "1007"],
        ["three_methods", "7", "2007"],
        ["three_methods", "7", "3007"],
        ["stream", "7", "7"],
    ]
    for line in runs[0]:
        digest, accuracy = line.split()[3:]
        assert len(digest) == 16 and int(digest, 16) >= 0
        assert 0.0 <= float(accuracy) <= 1.0
