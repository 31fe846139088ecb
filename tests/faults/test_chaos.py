"""The chaos harness itself: ladder shape, gate checks, artifact."""

import json

from repro.faults.chaos import escalating_plans, run_chaos
from repro.simulation import SimulationConfig


class TestEscalatingPlans:
    def test_ladder_starts_clean_and_escalates(self):
        plans = escalating_plans()
        names = [name for name, _plan in plans]
        assert names[0] == "clean"
        assert len(plans) >= 4
        assert not plans[0][1].any_enabled
        for _name, plan in plans[1:]:
            assert plan.any_enabled
        # The top rung exercises every server-side site.
        _, mayhem = plans[-1]
        assert mayhem.receive_crash.enabled
        assert mayhem.store_reject.enabled
        assert mayhem.overload.enabled
        assert mayhem.ack_loss.enabled


class TestRunChaos:
    def test_micro_chaos_passes_and_writes_artifact(self, tmp_path):
        out = tmp_path / "CHAOS.json"
        config = SimulationConfig(
            n_worker_devices=4,
            n_regular_devices=3,
            n_dropout_devices=1,
            study_days=3,
            n_popular_apps=120,
            n_promoted_apps=12,
            n_third_party_apps=4,
            n_antivirus_apps=3,
        )
        code = run_chaos(config, out=str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["failures"] == []
        plans = [name for name, _ in escalating_plans()]
        assert [run["plan"] for run in report["runs"]] == plans
        reference = report["runs"][0]
        assert reference["plan"] == "clean"
        for run in report["runs"]:
            assert run["digest"] == reference["digest"]
            assert run["records_inserted"] == reference["records_inserted"]
            assert run["pending_chunks"] == 0
            assert run["dead_letters_pending"] == 0
            assert run["redelivery_backlog"] == 0
        # The hostile rungs really injected something.
        mayhem_runs = [r for r in report["runs"] if r["plan"] == "mayhem"]
        assert mayhem_runs and all(
            sum(r["fault_counts"].values()) > 0 for r in mayhem_runs
        )
