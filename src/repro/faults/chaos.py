"""Chaos harness: prove exactly-once ingest under escalating fault plans.

``python -m repro chaos`` runs the same seeded study once per fault
plan — a clean plan first, then escalating plans that mix transport
loss, chunk corruption, ack loss after durable store, receive crashes
mid-chunk, store write rejections and overload windows.  Every run must
produce:

* a ``study_digest`` byte-identical to the clean reference run — the
  dataset the analyses see is invariant under any fault plan;
* the same ``records_inserted`` total — no record is ever dropped or
  double-ingested;
* empty terminal queues — no pending chunks, no dead letters, no
  server redelivery backlog once the study closes.

The per-run ingest counters (duplicate chunks absorbed, rollbacks,
injected faults, redeliveries) are reported alongside so a failure is
diagnosable from the JSON artifact, which is written even when the
gate fails (CI uploads it either way).
"""

from __future__ import annotations

import json

from .plan import FaultPlan, FaultSpec

__all__ = ["escalating_plans", "run_chaos"]


def escalating_plans() -> list[tuple[str, FaultPlan]]:
    """The built-in plan ladder: clean reference, then worse and worse.

    * ``clean`` — fault plane engaged, nothing injected: the reference
      realization every other plan must reproduce byte for byte.
    * ``lossy`` — chunks vanish or arrive corrupted; the buffer's
      hash-verified retry loop must re-send until the ack matches.
    * ``duplicating`` — acks are lost *after* the server durably stored
      the chunk, so the client retransmits data the server already has;
      the dedup window must absorb every duplicate.
    * ``mayhem`` — everything at once, plus receive crashes mid-chunk
      (atomic commit must roll back the partial insert), store write
      rejections, and a hard overload window on days 1-2.
    """
    return [
        ("clean", FaultPlan()),
        (
            "lossy",
            FaultPlan(
                transport_loss=FaultSpec(0.2),
                transport_corruption=FaultSpec(0.05),
            ),
        ),
        (
            "duplicating",
            FaultPlan(
                transport_loss=FaultSpec(0.1),
                ack_loss=FaultSpec(0.25),
            ),
        ),
        (
            "mayhem",
            FaultPlan(
                transport_loss=FaultSpec(0.1),
                transport_corruption=FaultSpec(0.05),
                ack_loss=FaultSpec(0.2),
                receive_crash=FaultSpec(0.25),
                store_reject=FaultSpec(0.15),
                overload=FaultSpec(1.0, days=(1, 2)),
                overload_retry_after_s=1800.0,
            ),
        ),
    ]


def _smoke_config(config):
    """Shrink a config to CI size (seconds per run, all code paths hot)."""
    return config.scaled(
        n_worker_devices=12,
        n_regular_devices=8,
        n_dropout_devices=2,
        study_days=4,
        n_popular_apps=300,
        n_promoted_apps=24,
        n_third_party_apps=6,
        n_antivirus_apps=4,
    )


def _run_entry(plan_name: str, plan: FaultPlan, config) -> dict:
    """One seeded study under one plan; returns the digest + counters."""
    from ..benchmark import study_digest
    from ..simulation import run_study

    data = run_study(config.scaled(fault_plan=plan))
    stats = data.server.stats
    buffers = [p.app.buffer for p in data.participants]
    return {
        "plan": plan_name,
        "plan_spec": plan.describe(),
        "digest": study_digest(data),
        "records_inserted": stats.records_inserted,
        "chunks_received": stats.chunks_received,
        "malformed_chunks": stats.malformed_chunks,
        "duplicate_chunks": stats.duplicate_chunks,
        "chunk_rollbacks": stats.chunk_rollbacks,
        "fault_counts": dict(data.server.fault_counts),
        "redelivered_chunks": data.server.redelivered_chunks,
        "redelivery_backlog": data.server.redelivery_backlog,
        "retransmissions": sum(b.retransmissions for b in buffers),
        "throttle_trips": sum(b.throttle_trips for b in buffers),
        "pending_chunks": sum(b.pending_chunks for b in buffers),
        "dead_letters_pending": sum(b.dead_letter_chunks for b in buffers),
    }


def _check_entry(entry: dict, reference: dict | None) -> list[str]:
    """The exactly-once gate for one run; returns failure descriptions."""
    failures = []
    if entry["pending_chunks"]:
        failures.append(f"{entry['pending_chunks']} chunks still pending at close")
    if entry["dead_letters_pending"]:
        failures.append(
            f"{entry['dead_letters_pending']} chunks dead-lettered at close"
        )
    if entry["redelivery_backlog"]:
        failures.append(
            f"{entry['redelivery_backlog']} chunks parked on the server "
            "redelivery queue at close"
        )
    if reference is not None:
        if entry["digest"] != reference["digest"]:
            failures.append(
                f"study digest {entry['digest'][:16]}... != clean reference "
                f"{reference['digest'][:16]}..."
            )
        if entry["records_inserted"] != reference["records_inserted"]:
            failures.append(
                f"records_inserted {entry['records_inserted']} != clean "
                f"reference {reference['records_inserted']}"
            )
    return failures


def run_chaos(
    config=None,
    *,
    smoke: bool = False,
    out: str = "CHAOS.json",
) -> int:
    """Run the plan ladder and enforce the exactly-once contract.

    Every plan's run must reproduce the clean reference run's
    ``study_digest`` and ``records_inserted`` and close with empty
    queues.  Writes a JSON report to ``out`` (also on failure) and
    returns a process exit code.
    """
    from ..simulation import SimulationConfig

    base = config if config is not None else SimulationConfig.small()
    if smoke:
        base = _smoke_config(base)

    entries: list[dict] = []
    failures: list[str] = []
    reference: dict | None = None
    interrupted: str | None = None
    try:
        for plan_name, plan in escalating_plans():
            entry = _run_entry(plan_name, plan, base)
            is_reference = reference is None
            if is_reference:
                reference = entry
            problems = _check_entry(entry, None if is_reference else reference)
            entry["failures"] = problems
            entries.append(entry)
            failures.extend(f"[{plan_name}] {problem}" for problem in problems)
            status = "FAIL" if problems else "ok"
            fault_note = ", ".join(
                f"{site}={count}"
                for site, count in sorted(entry["fault_counts"].items())
                if count
            )
            print(
                f"[{status:4s}] plan={plan_name:<12s} "
                f"digest={entry['digest'][:16]} "
                f"records={entry['records_inserted']} "
                f"dup={entry['duplicate_chunks']} "
                f"rollbacks={entry['chunk_rollbacks']} "
                f"retx={entry['retransmissions']} "
                f"redelivered={entry['redelivered_chunks']}"
                + (f" faults[{fault_note}]" if fault_note else "")
            )
    except BaseException as exc:  # artifact survives a crashed/killed run
        interrupted = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        report = {
            "smoke": smoke,
            "seed": base.seed,
            "study_days": base.study_days,
            "devices": base.total_devices,
            "runs": entries,
            "failures": failures,
            "passed": not failures and interrupted is None,
        }
        if interrupted is not None:
            report["interrupted"] = interrupted
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)

    print(f"wrote {out}")
    if failures:
        print(f"chaos: FAILED ({len(failures)} violations)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"chaos: ok — {len(entries)} runs, every fault plan reproduced the "
        f"clean digest {reference['digest'][:16]}..."
    )
    return 0
