#!/usr/bin/env python3
"""newscap benchmark entry point.

    python3 perfbench/run.py --workload desk|newsroom --seed N --seconds S \
        --trace 0|1

Run it from the repository root of a source checkout; it needs numpy and
nothing installed: it puts `src/` on the import path itself and pins
OpenBLAS/OpenMP to one thread before numpy loads. Inputs are generated from
--seed into a temporary directory under `.perfbench_out/`, which is removed
at the end. Rounds of train / greedy / beam-5 phases repeat while the next
round still fits in --seconds (at least one round runs).

--trace 0 reports the end-to-end metrics; --trace 1 reports per-layer metrics
from a span trace, and writes the spans to
`.perfbench_out/trace-<workload>-seed<seed>.json`. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The exit code
is 0 when every operation succeeded, 1 when one failed, 2 when the sources or
arguments are unusable.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("desk", "newsroom")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "newscap", "__init__.py")):
        print(f"error: no newscap sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workload

    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result, detail = workload.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), work_dir, OUT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, **detail), fh, indent=1)
    for metric, m in result["metrics"].items():
        print(f"{metric:48s} {m['value']!s:>22} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
