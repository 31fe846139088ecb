"""Benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it report
provenance, checks and every metric with its unit.  The full result
(and, with ``--trace 1``, the span list) is written as JSON under
``perfbench/out/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "ingest", "detect")


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep running timed iterations until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the small test cohorts")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench.bench import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result.to_json(), indent=1))
    for line in result.report_lines():
        print(line)
    print(f"# wrote {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(result.last_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
