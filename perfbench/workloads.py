"""The three benchmark workloads: ``study``, ``ingest`` and ``detect``.

Each workload builds its inputs from the run's seed in ``setup()`` and
runs one timed iteration per ``iteration(tracer)`` call through the
program's public entry points, then checks the outputs of that
iteration.  The timed section is the ``bench.workload`` span; with the
null tracer no span is recorded and nothing is wrapped.

Seeds.  ``--seed n`` selects cohort ``n mod COHORT_POOL`` from a pool of
pinned cohorts (study config seed ``DEFAULT_SEED + n mod COHORT_POOL``),
so every seed has a pinned reference digest in ``reference.json``; the
ingest retransmit schedule is drawn from ``n`` itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.benchmark import study_digest
from repro.core.pipeline import DetectionPipeline
from repro.experiments.common import Workbench
from repro.experiments.registry import run_experiment
from repro.platform.dashboard import Dashboard
from repro.platform.server import RacketStoreServer
from repro.platform.store import DocumentStore
from repro.simulation.config import DEFAULT_SEED, SimulationConfig
from repro.simulation.world import run_study

from .layers import CLASSIFIER_REPORTS, MEASUREMENT_REPORTS
from .spans import ROOT

REFERENCE_PATH = Path(__file__).with_name("reference.json")
COHORT_POOL = 16
N_JOBS = 2
#: Share of replayed chunks sent a second time (a lost hash ack), and
#: how many sends later the retransmission goes out at most.
RETRANSMIT_RATE = 0.025
RETRANSMIT_MAX_DELAY = 256
RETRANSMIT_STREAM = 7
#: Set-up repetitions whose median is ``setup_s`` (ingest sets up once:
#: its set-up is a whole serial default study).
SETUP_REPEATS = 3

COHORTS = {
    # The paper-calibrated default cohort (178 worker, 88 regular and 24
    # dropout devices) over 3 of its 10 study days.
    "default-3d": SimulationConfig().scaled(study_days=3),
    "small": SimulationConfig.small(),
    # Test size: the small cohort over three days.
    "tiny": SimulationConfig.small().scaled(study_days=3),
}
#: Warm-up study run by the study workload's set-up: imports, lazy
#: program state and the process pool path are exercised before timing.
WARMUP = SimulationConfig.small().scaled(
    study_days=2, n_worker_devices=8, n_regular_devices=4,
    n_dropout_devices=2, n_popular_apps=200,
)

SIZES = {
    # workload -> size -> cohort name; detect also fixes its CV folds.
    "study": {"full": "default-3d", "tiny": "tiny"},
    "ingest": {"full": "default-3d", "tiny": "tiny"},
    "detect": {"full": "small", "tiny": "small"},
}
DETECT_SPLITS = {"full": 10, "tiny": 3}


def cohort_config(cohort: str, seed: int) -> SimulationConfig:
    return COHORTS[cohort].scaled(seed=DEFAULT_SEED + seed % COHORT_POOL)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def pinned(kind: str, key: str, seed: int) -> str | None:
    return load_reference().get(kind, {}).get(key, {}).get(str(seed % COHORT_POOL))


class _NullTracer:
    """Untraced runs: spans cost one no-op context manager."""

    class _Null:
        def __enter__(self):
            return None

        def __exit__(self, *exc):
            return None

    _null = _Null()

    def span(self, name: str):
        return self._null


NULL_TRACER = _NullTracer()


@dataclasses.dataclass
class Iteration:
    """One timed iteration: its wall time, metrics and checks."""

    wall_s: float
    metrics: dict[str, float]
    attempted: int
    failed: int
    checks: dict[str, bool]
    digest: str
    servers: list = dataclasses.field(default_factory=list)
    samples: list[float] = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)


def _median_setup(build) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        build()
        times.append(perf_counter() - start)
    return statistics.median(times)


def device_days(data) -> int:
    """Simulated device-days: active (participant, study day) pairs."""
    days = data.config.study_days
    return sum(
        max(0, min(p.enrolled_day + p.active_days, days) - p.enrolled_day)
        for p in data.participants
    )


# -- study ------------------------------------------------------------------
class StudyWorkload:
    """``run_study`` on a seeded cohort at ``n_jobs=2`` (compact included)."""

    name = "study"
    n_jobs = N_JOBS
    min_iterations = 1

    def __init__(self, seed: int, size: str = "full") -> None:
        self.size = size
        self.cohort = SIZES["study"][size]
        self.seed = seed
        self.config = cohort_config(self.cohort, seed)

    @property
    def reference_key(self) -> str:
        return self.cohort

    def setup(self) -> float:
        self.expected = pinned("study_digest", self.reference_key, self.seed)
        return _median_setup(lambda: run_study(WARMUP, n_jobs=self.n_jobs))

    def iteration(self, tracer) -> Iteration:
        start = perf_counter()
        with tracer.span(ROOT):
            data = run_study(self.config, n_jobs=self.n_jobs)
        wall = perf_counter() - start
        digest = study_digest(data)
        return Iteration(
            wall_s=wall,
            metrics={"device_days_per_s": device_days(data) / wall},
            attempted=1,
            failed=0,
            checks={"study_digest": digest == self.expected},
            digest=digest,
            servers=[data.server],
        )


# -- ingest -----------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class WireChunk:
    kind: str
    data: bytes
    sha256: str


@dataclasses.dataclass(frozen=True)
class SignIn:
    kwargs: dict


def capture_study(config: SimulationConfig):
    """Run a study serially and record its server calls in wire order."""
    events: list[WireChunk | SignIn] = []
    receive = RacketStoreServer.receive_chunk
    register = RacketStoreServer.register_install

    def recording_receive(server, kind, data):
        events.append(WireChunk(kind, data, hashlib.sha256(data).hexdigest()))
        return receive(server, kind, data)

    def recording_register(server, **kwargs):
        events.append(SignIn(kwargs))
        return register(server, **kwargs)

    RacketStoreServer.receive_chunk = recording_receive
    RacketStoreServer.register_install = recording_register
    try:
        data = run_study(config, n_jobs=1)
    finally:
        RacketStoreServer.receive_chunk = receive
        RacketStoreServer.register_install = register
    return data, events


def send_order(events, seed: int) -> tuple[list[int], int]:
    """Event indices in send order, with seeded retransmissions mixed in.

    Each chunk is re-sent with probability ``RETRANSMIT_RATE``, 1 to
    ``RETRANSMIT_MAX_DELAY`` sends after its first delivery: the ack was
    lost, so the client sends the same bytes again.
    """
    rng = np.random.default_rng([RETRANSMIT_STREAM, seed])
    chunks = [i for i, event in enumerate(events) if isinstance(event, WireChunk)]
    resend = rng.random(len(chunks)) < RETRANSMIT_RATE
    delay = rng.integers(1, RETRANSMIT_MAX_DELAY + 1, size=len(chunks))
    keys = [(i, 0, i) for i in range(len(events))]
    keys += [
        (index + int(d), 1, index)
        for index, again, d in zip(chunks, resend, delay)
        if again
    ]
    keys.sort()
    return [index for _slot, _tie, index in keys], int(resend.sum())


def _dashboard_view(server) -> tuple:
    dashboard = Dashboard(server)
    overview = dashboard.overview()
    # Receive counters include retransmissions; everything else must
    # match the set-up study's store exactly.
    for key in ("chunks_received", "bytes_received"):
        overview.pop(key)
    return overview, dashboard.validate(), dashboard.lagging_installs()


class IngestWorkload:
    """Closed-loop replay of a study's wire chunks into a fresh server,
    then ``compact()`` and the read side over the replayed store."""

    name = "ingest"
    n_jobs = 1
    min_iterations = 1

    def __init__(self, seed: int, size: str = "full") -> None:
        self.size = size
        self.cohort = SIZES["ingest"][size]
        self.seed = seed
        self.config = cohort_config(self.cohort, seed)

    def setup(self) -> float:
        start = perf_counter()
        self.data, self.events = capture_study(self.config)
        self.order, self.retransmits = send_order(self.events, self.seed)
        self.participant_ids = [p.participant_id for p in self.data.participants]
        self.expected_digest = study_digest(self.data)
        self.expected_reports = self._reports(self.data, NULL_TRACER)
        self.expected_dashboard = _dashboard_view(self.data.server)
        self.input_ok = self.expected_digest == pinned(
            "study_digest", self.cohort, self.seed
        )
        return perf_counter() - start

    @staticmethod
    def _reports(data, tracer) -> dict[str, str]:
        workbench = Workbench(data.config)
        workbench.data = data
        with tracer.span("experiments.measure"):
            return {
                eid: run_experiment(eid, workbench).render()
                for eid in MEASUREMENT_REPORTS
            }

    def iteration(self, tracer) -> Iteration:
        events = self.events
        server = RacketStoreServer(DocumentStore())
        latencies: list[float] = []
        attempted = failed = mismatched = 0
        errors: list[str] = []
        reports: dict[str, str] = {}
        dashboard = None
        start = perf_counter()
        with tracer.span(ROOT):
            for participant_id in self.participant_ids:
                attempted += 1
                if server.issue_participant_id() != participant_id:
                    failed += 1
            for index in self.order:
                event = events[index]
                attempted += 1
                try:
                    if isinstance(event, WireChunk):
                        sent = perf_counter()
                        ack = server.receive_chunk(event.kind, event.data)
                        latencies.append(perf_counter() - sent)
                        if ack != event.sha256:
                            mismatched += 1
                    else:
                        server.register_install(**event.kwargs)
                except Exception as exc:  # a failed send is counted, not fatal
                    failed += 1
                    errors.append(repr(exc))
            replayed = perf_counter()
            server.store.compact()
            loaded = perf_counter()
            replayed_data = dataclasses.replace(self.data, server=server)
            attempted += 2
            try:
                reports = self._reports(replayed_data, tracer)
                with tracer.span("platform.dashboard"):
                    dashboard = _dashboard_view(server)
            except Exception as exc:
                failed += 1
                errors.append(repr(exc))
        end = perf_counter()
        failed += mismatched
        replay_s = replayed - start
        records = server.stats.records_inserted
        digest = study_digest(replayed_data)
        return Iteration(
            wall_s=end - start,
            metrics={
                "load_s": loaded - start,
                "chunks_per_s": (len(latencies) - mismatched) / replay_s,
                "records_per_s": records / replay_s,
                "read_s": end - loaded,
            },
            attempted=attempted,
            failed=failed,
            checks={
                "input_study_digest": self.input_ok,
                "store_digest": digest == self.expected_digest,
                "duplicate_chunks": server.stats.duplicate_chunks == self.retransmits,
                "measurement_reports": reports == self.expected_reports,
                "dashboard": dashboard == self.expected_dashboard,
            },
            digest=digest,
            servers=[server],
            samples=latencies,
            errors=errors,
        )


# -- detect -----------------------------------------------------------------
def detect_digest(rendered: dict[str, str], verdicts) -> str:
    """SHA-256 over the rendered classifier reports and device verdicts."""
    h = hashlib.sha256()
    for eid in CLASSIFIER_REPORTS:
        h.update(rendered[eid].encode())
    for verdict in verdicts:
        h.update(repr(dataclasses.astuple(verdict)).encode())
    return h.hexdigest()


def run_detection(data, n_splits: int, random_state: int, n_jobs: int, tracer):
    """``DetectionPipeline.run`` then the classifier reports."""
    result = DetectionPipeline(
        n_splits=n_splits, random_state=random_state, n_jobs=n_jobs
    ).run(data)
    workbench = Workbench(data.config)
    workbench.data = data
    workbench.pipeline_result = result
    rendered = {}
    for eid in CLASSIFIER_REPORTS:
        span = "experiments.fig13" if eid == "fig13" else "experiments.classifier_reports"
        with tracer.span(span):
            rendered[eid] = run_experiment(eid, workbench).render()
    return result, rendered


def model_fits(result) -> int:
    """CV fold fits, the two importance forests, the two deployable
    classifiers and the fig13 forest."""
    folds = sum(
        len(cv.fold_reports)
        for evaluation in (result.app_evaluation, result.device_evaluation)
        for cv in evaluation.results.values()
    )
    return folds + 5


class DetectWorkload:
    """``DetectionPipeline(n_splits=10, n_jobs=2).run`` on the small
    study, then ``table1``, ``fig13``, ``table2``, ``fig14``, ``fig15``.

    The seed drives the pipeline (``random_state``: CV folds, SMOTE
    draws, forests), not the cohort: the small cohort's §7.2 labels are
    seed-fragile.  Over config seeds ``DEFAULT_SEED + 0..15`` its app
    matrix has 56 to 310 rows, and five seeds label fewer than two
    regular instances, where ``DetectionPipeline.run`` raises
    (``_stratified_fold_of``: a class with fewer samples than folds).
    The calibrated seed gives the paper-shaped 310 x 20 app matrix.
    """

    name = "detect"
    n_jobs = N_JOBS
    #: One iteration is most of the window; report the median of two.
    min_iterations = 2

    def __init__(self, seed: int, size: str = "full") -> None:
        self.size = size
        self.cohort = SIZES["detect"][size]
        self.n_splits = DETECT_SPLITS[size]
        self.seed = seed
        self.random_state = seed % COHORT_POOL
        self.config = COHORTS[self.cohort]

    @property
    def reference_key(self) -> str:
        return f"{self.cohort}-{self.n_splits}fold"

    def setup(self) -> float:
        def build():
            self.data = run_study(self.config, n_jobs=1)

        self.expected = pinned("detect_digest", self.reference_key, self.seed)
        return _median_setup(build)

    def iteration(self, tracer) -> Iteration:
        start = perf_counter()
        with tracer.span(ROOT):
            result, rendered = run_detection(
                self.data, self.n_splits, self.random_state, self.n_jobs, tracer
            )
        wall = perf_counter() - start
        digest = detect_digest(rendered, result.verdicts)
        return Iteration(
            wall_s=wall,
            metrics={"fits_per_s": model_fits(result) / wall},
            attempted=1 + len(rendered),
            failed=0,
            checks={"detect_digest": digest == self.expected},
            digest=digest,
        )


WORKLOADS = {
    "study": StudyWorkload,
    "ingest": IngestWorkload,
    "detect": DetectWorkload,
}
