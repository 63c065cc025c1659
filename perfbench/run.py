"""Pipeline benchmark for gpexperts: time to a fused prediction, by stage.

    python3 perfbench/run.py --workload synth-1k-m10-all --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Prints a one-line JSON result as the last line of
standard output and writes the full record (environment, per-experiment
figures, checks and, for a traced run, the spans) to ``perfbench/out/``.
Exits 2 without a result when the package source is missing, 1 when the
run itself raises.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# One BLAS thread: on two shared cores, two threads made the small
# per-expert and per-point solves slower and far noisier.
BLAS_THREADS = "1"


def limit_blas_threads():
    """Cap BLAS threads; must run before NumPy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_path():
    """Put the checkout's package source and this directory on sys.path."""
    src = ROOT / "src"
    if not (src / "gpexperts" / "__init__.py").is_file():
        raise FileNotFoundError(f"package source not found under {src}")
    sys.path[:0] = [str(src), str(HERE)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_path()
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    limit_blas_threads()

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT_DIR
    )
    path = harness.write_record(record, OUT_DIR)
    for line in record["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(harness.summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
