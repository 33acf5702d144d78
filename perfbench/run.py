"""Experiment-throughput benchmark of ctreco.

    python3 perfbench/run.py --workload {study,gdp,monthly} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the program's own drivers
(``simulation.run_study``, ``pipeline.run_pipeline``) run whole rounds of
origins for ``--seconds`` seconds and the end-to-end metrics are
reported.  With ``--trace 1`` a replica of the drivers calls each layer's
public functions in the driver's order, timed from outside, and the
per-layer metrics are reported; the spans are written to
``perfbench/out/``.  Either way every run ends with a verification step
outside the measured section, and the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: steadier timings on a shared machine, and at most nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The imports are most of set-up, so setup_s takes the median import time
# of this process and of IMPORT_REPEATS - 1 fresh interpreters.
IMPORT_REPEATS = 3
_IMPORT = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import harness, workloads; print(time.perf_counter() - t)"
)


def fresh_import_s() -> float:
    """Seconds to import the package and the benchmark in a new interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT, str(HERE), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="study, gdp or monthly")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ctreco" / "__init__.py").is_file():
        print(f"perfbench: no ctreco sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy, scipy and ctreco
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T_START
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if not args.trace:
        import_s = statistics.median(
            [import_s] + [fresh_import_s() for _ in range(IMPORT_REPEATS - 1)]
        )
    result = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        import_s, trace_dir=HERE / "out",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
