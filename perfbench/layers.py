"""Layer wrappers for the traced run, and the per-layer metrics.

Each layer is named after its module and observed at its public
entry points (``perfbench/README.md`` holds the full layer table and
which end-to-end metric each layer moves on which workload):

===============================  ====================================
span                             wrapped callable
===============================  ====================================
``topology.generate``            ``repro.data.generate_topology``
``topology.compile``             ``AsTopology.compiled``
``spec.materialize``             ``iter_trials`` (each ``next()``)
``evaluate.trial``               ``repro.exper.evaluate.evaluate_trial``
``fastprop.batch``               ``evaluate_attack_seeds_array_batch``
``runner.run``                   ``ExperimentRunner.run``
``runner.stream``                the record stream an aggregation
                                 consumes (each ``next()``)
``aggregate.records``            ``aggregate_records``
``sinks.write``                  ``JsonlSink.begin/write/finish/close``
``sinks.resume_scan``            ``JsonlSink.resume_scan``
``results_store.read``           ``ResultsStore.read``
``results_store.ci``             ``repro.results.store.run_ci_document``
``jobs_store.read``              ``JobStore.jobs``, ``JobStore.records``
``jobs_store.append``            ``JobStore.enqueue``, ``JobStore.mark``
``scheduler.run_pending``        ``JobScheduler.run_pending``
``scheduler.submit``             ``JobScheduler.submit``
===============================  ====================================

Counts come from the ``repro.obs`` registry, read as snapshot deltas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from common import median, percentile
from tracer import SpanRecorder, covered_seconds

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    ("topology.generate_s", "s"),
    ("topology.compile_s", "s"),
    ("spec.materialize_s", "s/op"),
    ("evaluate.self_s", "s/op"),
    ("fastprop.busy_s", "s/op"),
    ("fastprop.calls", "1/op"),
    ("fastprop.sweeps", "1/op"),
    ("fastprop.touched_ases", "1/op"),
    ("fastprop.profile_hit_ratio", "ratio"),
    ("fastprop.mask_builds", "1/op"),
    ("runner.self_s", "s/op"),
    ("runner.batches", "1/op"),
    ("runner.batch_latency_p50_s", "s"),
    ("runner.scaling_efficiency", "ratio"),
    ("sinks.write_s", "s/op"),
    ("sinks.records", "1/op"),
    ("sinks.bytes", "B/op"),
    ("sinks.resume_scan_s", "s/op"),
    ("sinks.orphan_lines", "1/op"),
    ("aggregate.self_s", "s/op"),
    ("aggregate.bootstrap_draws", "1/op"),
    ("results_store.ci_s", "s/op"),
    ("results_store.read_s", "s/op"),
    ("jobs_store.read_s", "s/op"),
    ("jobs_store.reads_per_job", "1/op"),
    ("jobs_store.append_s", "s/op"),
    ("jobs_store.events", "count"),
    ("scheduler.queue_wait_s", "s"),
    ("scheduler.execute_s", "s"),
    ("http.submit_s", "s"),
    ("http.poll_s", "s"),
    ("http.ci_s", "s"),
    ("http.polls_per_job", "1/op"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points (see module table)."""
    import repro.data
    from repro.bgp import topology
    from repro.exper import aggregate, evaluate, runner
    from repro.jobs import scheduler, store as job_store
    from repro.results import sinks, store

    def stream_records(args: tuple, kwargs: dict):
        # aggregate_records(spec, records, ...): time the record stream
        # as the runner's (it drives evaluation), so aggregation keeps
        # only its own work, and tally the bootstrap draws it implies.
        spec, records = args[0], args[1]
        resamples = kwargs.get("bootstrap_resamples", 1000)
        if isinstance(records, (list, tuple)):
            recorder.tally("bootstrap_draws", resamples * len(records))
            return args, kwargs

        def counted():
            for record in recorder.iterate(records, "runner.stream"):
                recorder.tally("bootstrap_draws", resamples)
                yield record

        return (spec, counted()) + tuple(args[2:]), kwargs

    recorder.patch(repro.data, "generate_topology", "topology.generate")
    recorder.patch(topology.AsTopology, "compiled", "topology.compile")
    recorder.patch(runner, "iter_trials", "spec.materialize", generator=True)
    recorder.patch(evaluate, "evaluate_trial", "evaluate.trial")
    recorder.patch(
        evaluate, "evaluate_attack_seeds_array_batch", "fastprop.batch"
    )
    recorder.patch(runner.ExperimentRunner, "run", "runner.run")
    # The runner binds aggregate_records at import; the results store
    # imports it at call time, from its home module.
    for module in (runner, aggregate):
        recorder.patch(
            module, "aggregate_records", "aggregate.records",
            wrap_args=stream_records,
        )
    for method in ("begin", "write", "finish", "close"):
        recorder.patch(sinks.JsonlSink, method, "sinks.write")
    recorder.patch(sinks.JsonlSink, "resume_scan", "sinks.resume_scan")
    recorder.patch(store.ResultsStore, "read", "results_store.read")
    recorder.patch(store, "run_ci_document", "results_store.ci")
    for method in ("jobs", "records"):
        recorder.patch(job_store.JobStore, method, "jobs_store.read")
    for method in ("enqueue", "mark"):
        recorder.patch(job_store.JobStore, method, "jobs_store.append")
    recorder.patch(
        scheduler.JobScheduler, "run_pending", "scheduler.run_pending"
    )
    recorder.patch(scheduler.JobScheduler, "submit", "scheduler.submit")
    recorder.keep_starts.add("runner.run")


# ----------------------------------------------------------------------
# Registry reads
# ----------------------------------------------------------------------


def registry_counters() -> Dict[str, float]:
    from repro.obs import get_registry

    return {
        name: value
        for name, value in get_registry().snapshot().items()
        if isinstance(value, (int, float))
    }


def counter_deltas(before: Dict[str, float]) -> Dict[str, float]:
    now = registry_counters()
    return {name: now[name] - before.get(name, 0) for name in now}


def histogram_buckets(name: str) -> List[int]:
    from repro.obs import get_registry

    return list(get_registry().histogram(name).bucket_counts())


def bucket_median(before: Sequence[int], after: Sequence[int]) -> Optional[float]:
    """Median of a registry histogram's new observations (bucket upper
    bound, as ``LatencyHistogram.quantile`` reports it), or ``None``
    with fewer than 20 of them."""
    delta = [b - a for a, b in zip(before, after)] + list(after[len(before):])
    total = sum(delta)
    if total < 20:
        return None
    seen = 0
    for index, count in enumerate(delta):
        seen += count
        if seen >= total / 2:
            return (1 << index) / 1e6
    return None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def layer_metrics(
    table: dict,
    ops: int,
    *,
    counters: Dict[str, float],
    windows: Sequence[tuple],
    extra_intervals: Sequence[tuple] = (),
) -> Dict[str, tuple]:
    """Per-layer metrics ``name -> (value, samples)`` from a merged
    span table, registry counter deltas and the timed windows.

    Self times and counts are per operation (``ops``: trials, jobs or
    resumes).  A layer not on the workload's path reports 0.
    """
    ops = max(ops, 1)
    self_time = table["self"]
    count = table["count"]
    durations = table["durations"]

    def per_op(*names: str) -> tuple:
        return (
            sum(self_time.get(n, 0.0) for n in names) / ops,
            sum(count.get(n, 0) for n in names),
        )

    def counter(name: str) -> float:
        return counters.get(name, 0)

    builds = count.get("topology.generate", 0)
    hits = counter("fastprop.profile_hits")
    lookups = hits + counter("fastprop.profile_misses")
    wall = sum(end - start for start, end in windows)
    covered = covered_seconds(
        list(table["top"]) + list(extra_intervals), windows
    )
    out: Dict[str, tuple] = {
        "topology.generate_s": (
            median(durations.get("topology.generate", [])), builds,
        ),
        "topology.compile_s": (
            self_time.get("topology.compile", 0.0) / max(builds, 1),
            builds,
        ),
        "spec.materialize_s": per_op("spec.materialize"),
        "evaluate.self_s": per_op("evaluate.trial"),
        "fastprop.busy_s": per_op("fastprop.batch"),
        "fastprop.calls": (count.get("fastprop.batch", 0) / ops, ops),
        "fastprop.sweeps": (counter("fastprop.sweeps") / ops, ops),
        "fastprop.touched_ases": (
            counter("fastprop.touched_ases") / ops, ops,
        ),
        "fastprop.profile_hit_ratio": (
            hits / lookups if lookups else 0.0, int(lookups),
        ),
        "fastprop.mask_builds": (counter("fastprop.mask_builds") / ops, ops),
        "runner.self_s": per_op("runner.run", "runner.stream"),
        "sinks.write_s": per_op("sinks.write"),
        "sinks.records": (counter("results.records_written") / ops, ops),
        "sinks.bytes": (counter("results.bytes_written") / ops, ops),
        "sinks.resume_scan_s": per_op("sinks.resume_scan"),
        "aggregate.self_s": per_op("aggregate.records"),
        "aggregate.bootstrap_draws": (
            table["tallies"].get("bootstrap_draws", 0) / ops, ops,
        ),
        "results_store.ci_s": per_op("results_store.ci"),
        "results_store.read_s": per_op("results_store.read"),
        "jobs_store.read_s": per_op("jobs_store.read"),
        "jobs_store.reads_per_job": (
            count.get("jobs_store.read", 0) / ops, ops,
        ),
        "jobs_store.append_s": per_op("jobs_store.append"),
        "trace.unattributed_frac": (
            max(0.0, 1.0 - covered / wall) if wall else 0.0, len(windows),
        ),
    }
    return out


def p50(values: Sequence[float]) -> tuple:
    """``(median, samples)``; 0 when too few samples back a median."""
    value = percentile(values, 0.5)
    return (0.0 if value is None else value, len(values))


def report(outcome, metrics: Dict[str, tuple]) -> None:
    """Put every per-layer metric on ``outcome``; one the workload did
    not produce (its layer is not on the path) reports 0."""
    for name, unit in PER_LAYER:
        value, samples = metrics.get(name, (0.0, 0))
        outcome.metric(name, value, unit, samples)
