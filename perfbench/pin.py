"""Regenerate ``perfbench/reference.json``: the pinned output digests.

Run from the root of a checkout:

    python3 perfbench/pin.py                 # every pin
    python3 perfbench/pin.py --size tiny     # only the test-size pins

Each pin is computed on the serial path (``n_jobs=1``), so the
benchmark's ``n_jobs=2`` runs are checked against the serial reference.
Re-pin only when a change is meant to alter the study or the detection
results; the reference is written after every cohort, so an interrupted
run keeps what it finished.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    parser.add_argument("--kind", choices=("study_digest", "detect_digest"), action="append")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.benchmark import study_digest
    from repro.simulation.world import run_study

    from perfbench import workloads as wl

    reference = wl.load_reference() if wl.REFERENCE_PATH.exists() else {}
    reference["cohort_pool"] = wl.COHORT_POOL
    for size in args.size or ("tiny", "full"):
        for kind in args.kind or ("study_digest", "detect_digest"):
            workload = (wl.StudyWorkload if kind == "study_digest" else wl.DetectWorkload)
            pins = {}
            studies = {}
            for seed in range(wl.COHORT_POOL):
                bench = workload(seed, size)
                if bench.config not in studies:
                    studies = {bench.config: run_study(bench.config, n_jobs=1)}
                data = studies[bench.config]
                if kind == "study_digest":
                    pins[str(seed)] = study_digest(data)
                else:
                    result, rendered = wl.run_detection(
                        data, bench.n_splits, bench.random_state, 1, wl.NULL_TRACER
                    )
                    pins[str(seed)] = wl.detect_digest(rendered, result.verdicts)
                print(kind, bench.reference_key, seed, pins[str(seed)], flush=True)
            reference.setdefault(kind, {})[bench.reference_key] = pins
            wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
