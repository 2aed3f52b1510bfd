"""The fleet's conservation laws, written once.

:func:`check_invariants` is the single failure oracle behind the chaos
suites, the randomized policy-grid harness, the chaos shrinker and the
regression replayer, so all of them agree exactly on what "fails"
means.  Each law has a short stable signature and the first broken law
wins, so the order is part of the contract: committed regression
fixtures record a signature, and the shrinker keeps only candidates
that fail with the same one.  New laws are appended, never inserted.
"""

from __future__ import annotations

__all__ = ["check_invariants"]


def check_invariants(session, result) -> str | None:
    """``None`` if every law holds, else the first broken law's signature.

    The laws: message and upload conservation, exactly-once completion,
    crash and revocation supervision and their counters, capacity
    conservation and its per-tier split, never-reused worker ids,
    dollar-cost closure over compute and WAN egress, time-ordered
    timelines, and the per-region WAN, homing and migration totals.
    """
    if result.num_messages_in_flight != 0:
        return "messages_outstanding"
    if (
        result.num_messages_delivered + result.num_abandoned_messages
        != result.num_messages_sent
    ):
        return "message_conservation"
    for kind, abandoned in result.abandoned_by_kind.items():
        if not 0 <= abandoned <= result.sends_by_kind[kind]:
            return "abandoned_out_of_range"
    sent_uploads = sum(entry.session.num_uploads for entry in result.cameras)
    labeled = len(result.queue_waits)
    if (
        labeled + result.num_rejected_uploads + result.num_abandoned_uploads
        != sent_uploads
    ):
        return "upload_conservation"
    if not 0.0 <= result.label_loss_fraction <= 1.0:
        return "label_loss_fraction"
    clusters = session.clusters
    completed = [
        job
        for cluster in clusters
        for worker in cluster.workers
        for job in worker.completed_jobs
    ]
    if len({id(job) for job in completed}) != len(completed):
        return "duplicate_completion"
    if any(job.wait_seconds < -1e-9 for job in completed):
        return "negative_queue_delay"
    if result.num_crash_recovered_jobs != sum(
        record.jobs_in_flight for record in result.crash_records
    ):
        return "crash_counter"
    recovered = result.num_relabeled_jobs + result.num_checkpoint_resumed_jobs
    if recovered != sum(
        record.jobs_in_flight for record in result.revocation_records
    ):
        return "revocation_counter"
    capacity = result.gpu_seconds_provisioned
    tiers = sum(result.gpu_seconds_by_tier.values())
    if abs(tiers - capacity) > 1e-6 * max(1.0, capacity):
        return "tier_split"
    for cluster in clusters:
        crash_times = [record.time for record in cluster.crash_log]
        if crash_times != sorted(crash_times):
            return "crash_log_order"
        for record in cluster.crash_log:
            victim = cluster.workers[record.worker_id]
            if not (victim.crashed and victim.draining):
                return "crash_victim_state"
            if abs(victim.retired_at - record.time) > 1e-9:
                return "crash_billing"
            if record.replacement_id is not None:
                if cluster.workers[record.replacement_id].spec != victim.spec:
                    return "crash_replacement_spec"
            if record.jobs_in_flight < 0 or record.jobs_queued < 0:
                return "crash_negative_jobs"
        for worker in cluster.workers:
            # a late crash's replacement may drain the victim's backlog
            # past the stream end, billing through that tail
            horizon = max(result.duration_seconds, worker.busy_until)
            provisioned = cluster.worker_provisioned_seconds(worker, horizon)
            if worker.busy_seconds > provisioned + 1e-6:
                return "capacity_conservation"
        ids = [worker.worker_id for worker in cluster.workers]
        if ids != list(range(len(cluster.workers))):
            return "worker_id_reuse"
    federation = session.federation
    expected = federation.compute_dollar_cost(
        result.duration_seconds
    ) + federation.wan_dollar_cost()
    cost = result.dollar_cost
    if cost < 0.0 or abs(cost - expected) > 1e-6 * max(1.0, expected):
        return "cost_closure"

    plan = session.faults
    for region in federation.regions:
        cluster = region.cluster
        for worker in cluster.workers:
            completions = [job.completion for job in worker.completed_jobs]
            if completions != sorted(completions):
                return "completion_order"
        counts = [count for _, count in cluster.provision_timeline()]
        if min(counts) < 0 or counts[0] < 1 or max(counts) > len(cluster.workers):
            return "provision_timeline"
        revocation_times = [record.time for record in cluster.revocation_log]
        if revocation_times != sorted(revocation_times):
            return "revocation_log_order"
        for record in cluster.revocation_log:
            victim = cluster.workers[record.worker_id]
            if not (victim.spec.preemptible and victim.revoked):
                return "revocation_victim_state"
        victims = [record.worker_id for record in cluster.crash_log]
        if len(set(victims)) != len(victims):
            return "repeat_crash"
        for record in cluster.crash_log:
            if record.mode != plan.crash_recovery:
                return "crash_mode"
            # only an autoscaler's scale-down drain may skip the restart
            if region.autoscaler.name == "none" and record.replacement_id is None:
                return "crash_without_replacement"
        scaling_times = [event.time for event in region.controller.events]
        if scaling_times != sorted(scaling_times):
            return "scaling_event_order"
        if plan is None:  # without faults every worker's work fits the run
            for worker in cluster.workers:
                run = cluster.worker_provisioned_seconds(worker, result.duration_seconds)
                if worker.busy_seconds > run + 1e-6:
                    return "capacity_within_run"
    if not result.revocation_records and (recovered or result.wasted_gpu_seconds):
        return "revocation_without_record"
    if not result.crash_records and (
        result.num_crash_recovered_jobs or result.crash_wasted_gpu_seconds
    ):
        return "crash_without_record"
    checkpointed = plan is not None and plan.crash_recovery == "checkpoint"
    if checkpointed and result.crash_wasted_gpu_seconds:
        return "checkpoint_waste"
    if len(result.worker_specs) != sum(len(c.workers) for c in clusters):
        return "worker_specs_count"
    if len(completed) != labeled:
        return "completion_count"
    metrics = result.region_metrics
    wan = sum(m["wan_dollar_cost"] for m in metrics)
    if abs(result.wan_dollar_cost - wan) > 1e-9:
        return "wan_cost_split"
    if sum(m["num_cameras_homed"] for m in metrics) != len(session.cameras):
        return "camera_homing"
    migrations_in = sum(m["num_migrations_in"] for m in metrics)
    migrations_away = sum(m["num_migrations_away"] for m in metrics)
    if not migrations_in == migrations_away == result.num_region_migrations:
        return "migration_balance"
    return None
