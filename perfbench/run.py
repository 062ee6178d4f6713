#!/usr/bin/env python3
"""Host-time benchmark of fedselsim: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study_low --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
record (environment, metrics, cell digests, captured log lines) is written to
``perfbench/out/``, and a traced run also writes its spans there. The
benchmark imports fedselsim from the checkout's ``src/`` and exits with code 2
without a result if it is not there. See README.md beside this file.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_harness():
    """Import the harness against this checkout's fedselsim, never another copy."""
    package = SRC / "fedselsim"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no fedselsim sources at {package}")
    sys.path.insert(0, str(SRC))
    import fedselsim

    if Path(fedselsim.__file__).resolve().parent != package.resolve():
        raise ImportError(f"fedselsim imported from {fedselsim.__file__}, not {package}")
    import harness

    return harness


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness = load_harness()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    capture = harness.LogCapture()
    logging.getLogger("fedselsim").addHandler(capture)
    gate = harness.Gate.load(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if args.trace:
        metrics, samples = harness.measure_traced(
            args.workload, args.seed, args.seconds, gate, OUT_DIR / f"{stem}.spans.jsonl.gz"
        )
        units = harness.LAYER_UNITS
    else:
        metrics, samples = harness.measure(args.workload, args.seed, args.seconds, gate)
        units = harness.END_TO_END_UNITS

    env = harness.environment()
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    if not gate.recorded:
        for line in gate.digest_lines():
            print(line)
    for problem in gate.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {units[name]}")
    result = {
        "correct": not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "digests": gate.seen,
        "digests_recorded": bool(gate.recorded),
        "problems": gate.problems,
        "log": capture.messages,
        "samples": samples,
        **result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
