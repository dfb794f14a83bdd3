"""evseg benchmark entry point.  Run from the root of a checkout:

    python3 perfbench/run.py --workload two_strip --seed 7 --seconds 20 --trace 0

Workloads: two_strip, fan_coin, many_clusters, three_methods, stream.
``--trace 1`` prints the per-layer table instead of the end-to-end metrics.
The program is imported from ``src/`` of the same checkout and nowhere else;
without it the run fails before printing a result.
"""
import os
import sys
from pathlib import Path

# one thread: the closed loop runs one solver call at a time
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "evseg" / "__init__.py").is_file():
        print(f"perfbench: no evseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evseg

    if Path(evseg.__file__).resolve().parent != SRC / "evseg":
        print(f"perfbench: evseg imported from {evseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
