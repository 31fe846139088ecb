"""PAR001/PAR002 gates on the phase-1 device-day worker.

The world driver submits ``phases.run_device_day`` through
``parallel_map`` (serially, ``n_jobs=1``), so it must satisfy the
parallel-capture rules: a module-level picklable worker, no captured
Generators, randomness only via the pre-drawn ``seed`` parameter.  The
broken fixtures build a synthetic shard worker the tempting-but-wrong
ways and must fire: they test the rules, not the engine.
"""

from pathlib import Path

from repro.statan.engine import analyze_tree

SRC = Path(__file__).resolve().parents[2] / "src"


def rules_fired(root, rule):
    findings, _ = analyze_tree([str(root)])
    return [f for f in findings if f.rule == rule]


class TestShardWorkerIsClean:
    def test_real_day_engine_passes_the_parallel_rules(self):
        findings, _ = analyze_tree([str(SRC)])
        day_engine = [
            f
            for f in findings
            if f.rule.startswith("PAR")
            and Path(f.path).name in ("phases.py", "world.py")
        ]
        assert day_engine == [], "\n".join(f.format_text() for f in day_engine)


class TestBrokenShardWorkers:
    def test_nested_worker_capturing_day_rng_fires_par001(self, write_tree):
        # The tempting shortcut: close over one Generator for the whole
        # day instead of shipping per-device seeds.
        root = write_tree({
            "simulation/fanout.py": (
                "import numpy as np\n"
                "from repro.parallel import parallel_map\n"
                "\n"
                "def fan_out_day(day_start, tasks):\n"
                "    rng = np.random.default_rng(0)\n"
                "    def run_day_shard(task):\n"
                "        return task.index + rng.normal()\n"
                "    return parallel_map(run_day_shard, [(t,) for t in tasks])\n"
            ),
        })
        findings = rules_fired(root, "PAR001")
        assert len(findings) == 1
        assert "run_day_shard" in findings[0].message

    def test_seedless_shard_worker_fires_par002(self, write_tree):
        # A worker that mints its own randomness instead of taking the
        # pre-drawn seeds: not reproducible across worker counts.
        root = write_tree({
            "simulation/fanout.py": (
                "import numpy as np\n"
                "from repro.parallel import parallel_map\n"
                "\n"
                "def run_day_shard(day_start, tasks):\n"
                "    rng = np.random.default_rng()\n"
                "    return [task.index + rng.normal() for task in tasks]\n"
                "\n"
                "def fan_out_day(day_start, tasks):\n"
                "    return parallel_map(\n"
                "        run_day_shard, [(day_start, (t,)) for t in tasks]\n"
                "    )\n"
            ),
        })
        findings = rules_fired(root, "PAR002")
        assert len(findings) == 1
        assert "no explicit seed parameter" in findings[0].message

    def test_shipping_generators_in_shard_tasks_fires_par002(self, write_tree):
        root = write_tree({
            "simulation/fanout.py": (
                "import numpy as np\n"
                "from repro.parallel import parallel_map\n"
                "\n"
                "def run_day_shard(day_start, tasks, rng):\n"
                "    return [task.index + rng.normal() for task in tasks]\n"
                "\n"
                "def fan_out_day(day_start, tasks):\n"
                "    rng = np.random.default_rng(0)\n"
                "    return parallel_map(\n"
                "        run_day_shard, [(day_start, (t,), rng) for t in tasks]\n"
                "    )\n"
            ),
        })
        findings = rules_fired(root, "PAR002")
        assert len(findings) == 1
        assert "Generator 'rng'" in findings[0].message
