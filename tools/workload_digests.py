"""Print the output digest of each recording the benchmark workloads solve.

One line per workload, seed and recording, in that order:

    <workload> <seed> <recording seed> <digest> <accuracy>

The digest is the first 16 hex digits of the SHA-256 that
``perfbench/workloads.py``'s ``score()`` takes over every output byte of the
workload's solver call, and the accuracy is that call's worst per-event
accuracy, so two checkouts that print the same lines solved every recording
the same way.  The workload definitions are imported unchanged from
``perfbench/`` and the program from ``src/`` of this checkout.  Each
recording is solved once, untimed and untraced, on one thread.

    python3 tools/workload_digests.py [--workloads NAME ...] [--seeds 7 8] [--scale full|mini]
"""
import argparse
import os
import sys
from pathlib import Path

# one thread, as in the benchmark's own runs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (needs the paths above)


def digest_lines(names, seeds, scale: str):
    """The line of each recording of each workload in ``names`` at each seed."""
    for name in names:
        wl = workloads.WORKLOADS[name]
        for seed in seeds:
            for rec_seed in workloads.recording_seeds(seed, wl.recordings):
                rec = workloads.make_inputs(wl.scene, rec_seed, workloads.SCALES[scale])
                outcome = workloads.score(wl.prepare(rec)(), rec)
                yield f"{name} {seed} {rec_seed} {outcome.digest[:16]} {outcome.accuracy:.6f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="digest of every benchmark recording's outputs")
    names = list(workloads.WORKLOADS)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=[7, 8])
    ap.add_argument("--scale", choices=list(workloads.SCALES), default="full")
    args = ap.parse_args(argv)
    for line in digest_lines(args.workloads, args.seeds, args.scale):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
