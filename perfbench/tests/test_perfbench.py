"""Tests of the benchmark itself, at tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, run  # noqa: E402
from perfbench.workloads import IngestWorkload, WireChunk  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One tiny traced run per workload through the command line."""
    out = tmp_path_factory.mktemp("out")
    results = {}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", "1", "--size", "tiny", "--out", str(out)]
        code = run.main(argv)
        saved = json.loads((out / f"{name}-tiny-seed3-trace1.json").read_text())
        results[name] = (code, saved)
    return results


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_reports_every_metric_with_unit(traced, name):
    code, saved = traced[name]
    assert code == 0 and saved["correct"], saved["checks"]
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    expected["error_rate"] = "ratio"
    expected.update(bench.WORKLOAD_METRICS[name])
    assert {k: unit for k, (_v, unit) in saved["end_to_end"].items()} == expected
    assert saved["end_to_end"]["error_rate"][0] == 0
    assert all(saved["end_to_end"][m["name"]][0] > 0 for m in DECLARED["end_to_end"])
    layer_units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: unit for k, (_v, unit) in saved["per_layer"].items()} == layer_units
    assert saved["provenance"]["serial_fallbacks"] == 0


def test_result_line_carries_exactly_the_declared_metrics(capsys, tmp_path):
    assert run.main(["--workload", "study", "--seed", "1", "--seconds", "0",
                     "--size", "tiny", "--out", str(tmp_path)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_json_parses_and_self_times_sum_to_wall(traced, name):
    _code, saved = traced[name]
    spans = saved["spans"]
    assert spans and all({"id", "name", "start", "end", "parent"} <= set(s) for s in spans)
    assert spans[0]["name"] == "bench.workload" and spans[0]["parent"] is None
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    own = dict(duration)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration[s["id"]]
    wall = duration[spans[0]["id"]]
    layers = saved["per_layer"]
    residual = layers["bench.residual_s"][0]
    assert own[spans[0]["id"]] == pytest.approx(residual, abs=1e-9)
    named = sum(v for k, v in own.items() if k != spans[0]["id"])
    assert named + residual == pytest.approx(wall, rel=1e-9)
    assert layers["bench.traced_wall_s"][0] == pytest.approx(wall)
    assert layers["bench.trace_overhead"][0] > 0


def test_traced_layers_do_the_predicted_work(traced):
    study = traced["study"][1]["per_layer"]
    ingest = traced["ingest"][1]["per_layer"]
    detect = traced["detect"][1]["per_layer"]
    assert study["parallel.pools"][0] > 0 and study["simulation.phase1_s"][0] > 0
    assert study["simulation.other_s"][0] == study["bench.residual_s"][0]
    assert ingest["simulation.phase1_s"][0] == 0 and ingest["ml.fits"][0] == 0
    assert ingest["store.mark_s"][0] > 0 and ingest["store.query_calls"][0] > 0
    assert ingest["platform.duplicate_acks"][0] == traced["ingest"][1]["notes"]["retransmits"]
    assert 0 < ingest["platform.first_delivery_ratio"][0] < 1
    assert detect["ml.fits"][0] > 0 and detect["ml.cv.app.RF_s"][0] > 0
    assert detect["simulation.phase1_s"][0] == 0 and detect["platform.ingest_calls"][0] == 0


class _CorruptedIngest(IngestWorkload):
    """Flips one byte of the first replayed chunk in transit: the client
    still expects the SHA-256 of the bytes it meant to send."""

    def setup(self) -> float:
        setup_s = super().setup()
        index = next(i for i in self.order if isinstance(self.events[i], WireChunk))
        chunk = self.events[index]
        corrupted = bytes([chunk.data[0] ^ 0xFF]) + chunk.data[1:]
        self.events[index] = WireChunk(chunk.kind, corrupted, chunk.sha256)
        return setup_s


def test_corrupted_replay_chunk_makes_error_rate_positive():
    result = bench.measure(_CorruptedIngest(0, "tiny"), seconds=0)
    assert result.end_to_end["error_rate"][0] > 0
    assert not result.correct
    assert result.failed >= 2  # the mismatched ack and the store digest
    assert not result.checks["store_digest"]
