"""Run one workload: set-up, timed iterations, checks, optional trace.

``run()`` is what ``run.py`` calls; ``measure()`` also takes a prepared
workload, which the benchmark's own tests use.  Both return a
:class:`Result`; ``Result.last_line()`` is the JSON object the benchmark
prints last.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import obs

from . import layers
from .spans import FallbackCounter, Tracer
from .workloads import NULL_TRACER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: End-to-end metrics that apply to one workload only.  They are printed
#: and saved with every run; the result line carries the metrics that
#: ``BENCHMARK.json`` declares for every workload.
WORKLOAD_METRICS = {
    "study": {"device_days_per_s": "1/s"},
    "ingest": {
        "load_s": "s",
        "chunks_per_s": "1/s",
        "records_per_s": "1/s",
        "chunk_p50_ms": "ms",
        "chunk_p99_ms": "ms",
        "read_s": "s",
    },
    "detect": {"fits_per_s": "1/s"},
}


@dataclasses.dataclass
class Result:
    workload: str
    seed: int
    size: str
    trace: bool
    attempted: int
    failed: int
    checks: dict[str, bool]
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    notes: dict
    provenance: dict
    spans: list[dict] | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def reported(self) -> dict[str, tuple[float, str]]:
        """The metrics the result line carries for this run."""
        declared = json.loads(BENCHMARK_JSON.read_text())
        names = [m["name"] for m in declared["per_layer" if self.trace else "end_to_end"]]
        source = self.per_layer if self.trace else self.end_to_end
        missing = [name for name in names if name not in source]
        if missing:
            raise KeyError(f"{self.workload} did not measure {missing}")
        return {name: source[name] for name in names}

    def last_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.reported().items()
                },
            }
        )

    def report_lines(self) -> list[str]:
        lines = [
            f"# perfbench {self.workload} seed={self.seed} size={self.size} "
            f"trace={int(self.trace)} iterations={self.notes['iterations']}",
            "# provenance " + json.dumps(self.provenance, sort_keys=True),
            "# notes " + json.dumps(self.notes, sort_keys=True),
        ]
        lines += [
            f"# check {name}: {'ok' if ok else 'FAILED'}"
            for name, ok in self.checks.items()
        ]
        metrics = self.per_layer if self.trace else self.end_to_end
        lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
        return lines

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "size": self.size,
            "trace": self.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "end_to_end": self.end_to_end,
            "per_layer": self.per_layer,
            "notes": self.notes,
            "provenance": self.provenance,
            **({"spans": self.spans} if self.spans is not None else {}),
        }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def provenance(fallbacks: int) -> dict:
    import repro

    src = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the benchmark may run from a plain checkout
    return {
        "nproc": os.cpu_count(),
        "serial_fallbacks": fallbacks,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "command": shlex.join(getattr(sys, "orig_argv", sys.argv)),
    }


def _iteration(workload, tracer):
    # Every iteration starts from an empty collector, so where a full
    # collection over the large set-up heap lands does not vary by run.
    gc.collect()
    return workload.iteration(tracer)


def _iterate(workload, seconds: float):
    """Timed iterations for ``seconds``, at least ``workload.min_iterations``.

    Past the minimum, another iteration starts only while a whole one (at
    the median iteration time so far) still fits in the window, so the
    timed part of a run ends within ``seconds`` unless the minimum
    iterations alone take longer.
    """
    iterations = []
    start = perf_counter()
    while len(iterations) < workload.min_iterations or (
        perf_counter() - start + statistics.median(it.wall_s for it in iterations)
        <= seconds
    ):
        iteration = _iteration(workload, NULL_TRACER)
        iteration.servers = []  # keep no iteration's store alive past it
        iterations.append(iteration)
    return iterations


def _end_to_end(name: str, setup_s: float, iterations) -> dict[str, tuple[float, str]]:
    out = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(it.wall_s for it in iterations), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for metric, unit in WORKLOAD_METRICS[name].items():
        if metric in ("chunk_p50_ms", "chunk_p99_ms"):
            continue
        out[metric] = (statistics.median(it.metrics[metric] for it in iterations), unit)
    samples = [s for it in iterations for s in it.samples]
    if name == "ingest":
        out["chunk_p50_ms"] = (float(np.quantile(samples, 0.50)) * 1e3, "ms")
        out["chunk_p99_ms"] = (float(np.quantile(samples, 0.99)) * 1e3, "ms")
    return out


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    size: str = "full",
) -> Result:
    return measure(WORKLOADS[workload_name](seed, size), seconds, trace)


def measure(workload, seconds: float, trace: bool = False) -> Result:
    """Set up ``workload``, time it for ``seconds``, check it, trace it."""
    workload_name = workload.name
    fallbacks = FallbackCounter()
    fallbacks.install()
    try:
        setup_s = workload.setup()
        iterations = _iterate(workload, seconds)
        traced = tracer = None
        if trace:
            tracer = Tracer()
            registry = obs.configure(metrics=True, tracing=False)
            layers.install(tracer)
            try:
                traced = _iteration(workload, tracer)
            finally:
                tracer.uninstall()
                obs.reset()
    finally:
        fallbacks.uninstall()

    runs = iterations + ([traced] if traced else [])
    checks: dict[str, bool] = {}
    for index, it in enumerate(runs):
        suffix = "" if len(runs) == 1 else f"[{index}]"
        checks.update({f"{name}{suffix}": ok for name, ok in it.checks.items()})
    checks["same_digest_every_iteration"] = len({it.digest for it in runs}) == 1
    if workload.n_jobs > 1:
        # An n_jobs=2 figure measured on a serial fallback is invalid.
        checks["no_serial_fallback"] = fallbacks.count == 0

    # attempted/failed: every operation and every output check.
    attempted = sum(it.attempted for it in runs) + len(checks)
    failed = sum(it.failed for it in runs) + sum(not ok for ok in checks.values())
    end_to_end = _end_to_end(workload_name, setup_s, iterations)
    end_to_end["error_rate"] = (failed / attempted, "ratio")
    per_layer: dict[str, tuple[float, str]] = {}
    spans = None
    if traced:
        per_layer = layers.metrics(
            tracer,
            workload=workload_name,
            fallbacks=fallbacks.count,
            registry=registry,
            servers=traced.servers,
            untraced_wall_s=end_to_end["wall_s"][0],
        )
        spans = tracer.to_json()
    notes = {
        "iterations": len(iterations),
        "cohort": workload.cohort,
        "config_seed": workload.config.seed,
        "n_jobs": workload.n_jobs,
        "digest": runs[0].digest,
        "errors": [e for it in runs for e in it.errors][:10],
    }
    if workload_name == "detect":
        notes["random_state"] = workload.random_state
    if workload_name == "ingest":
        notes["chunk_latency_samples"] = sum(len(it.samples) for it in iterations)
        notes["retransmits"] = workload.retransmits
    return Result(
        workload=workload_name,
        seed=workload.seed,
        size=workload.size,
        trace=trace,
        attempted=attempted,
        failed=failed,
        checks=checks,
        end_to_end=end_to_end,
        per_layer=per_layer,
        notes=notes,
        provenance=provenance(fallbacks.count),
        spans=spans,
    )
