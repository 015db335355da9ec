"""Run one facetfit benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Progress and check messages go to standard error.

BLAS is pinned to one thread for this process before numpy is imported.
The workloads, and the metrics with their units, are read from
BENCHMARK.json at the repository root.  facetfit is imported from ``src/``
next to this directory and from nowhere else; without it the command exits
with status 2 and prints no result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(bench, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop; whole rounds run until it is used up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the quick tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(bench, argv)
    if not (SRC / "facetfit" / "__init__.py").is_file():
        print(f"perfbench: no facetfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import facetfit

    if Path(facetfit.__file__).resolve().parent != SRC / "facetfit":
        print(f"perfbench: imported facetfit from {facetfit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           units, size=args.size, work_dir=str(out_dir),
                           log=lambda line: print(line, file=sys.stderr, flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
