"""The ``granularity-10k`` and ``deployment-10k`` workloads.

Both drive ``ExperimentRunner(...).run()`` with a ``JsonlSink``, which
is what ``repro-roa experiment --spec <file> --sink <run>`` does, on
a 10k-AS synthetic topology.  A run repeats the grid with a fresh
spec seed until ``--seconds`` of run wall has accumulated;
``ops_per_s`` is completed trials over that wall (set-up and the
benchmark's own checks excluded).
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from common import (
    Outcome,
    clock,
    derive_seed,
    load_spec_document,
    SpeedProbe,
    repeated_setup,
    report_end_to_end,
)
import layers
from tracer import SpanRecorder, load_tables, merge_tables

#: The deployment workload's fixed pool size.
WORKERS = 2

#: granularity-10k: cells whose mean capture is fixed by the paper's
#: argument, independent of any RNG draw (universal validation).
GRANULARITY_ZERO = (
    "forged-origin-subprefix/minimal",
    "forged-origin-subprefix/maxlength-17",
    "forged-origin-subprefix/maxlength-18",
    "forged-origin-subprefix/maxlength-19",
    "forged-origin-subprefix/maxlength-20",
    "forged-origin-subprefix/maxlength-22",
    "subprefix-hijack/minimal",
)
GRANULARITY_ONE = (
    "forged-origin-subprefix/maxlength-loose",
    "forged-origin-subprefix/none",
)


def check_granularity(result, outcome: Outcome, label: str) -> None:
    for name in GRANULARITY_ZERO:
        mean = result.cell(name).mean
        outcome.check(mean == 0.0, f"{label}: {name} mean {mean} != 0")
    for name in GRANULARITY_ONE:
        mean = result.cell(name).mean
        outcome.check(mean == 1.0, f"{label}: {name} mean {mean} != 1")


def check_deployment(result, outcome: Outcome, label: str) -> None:
    mean = result.cell("prefix-hijack/minimal", 1.0).mean
    outcome.check(
        mean == 0.0, f"{label}: prefix-hijack/minimal@1.0 mean {mean} != 0"
    )
    for name in result.cell_names:
        if not name.startswith("forged-origin/"):
            continue
        for fraction in result.fractions:
            mean = result.cell(name, fraction).mean
            outcome.check(
                mean > 0.0, f"{label}: {name}@{fraction} mean {mean} <= 0"
            )


CHECKS = {
    "granularity-10k": check_granularity,
    "deployment-10k": check_deployment,
}


def set_up(document: dict, topology_seed: int):
    """Topology generation + compile + spec load; returns the parts
    and the seconds they took."""
    import repro.data
    from repro.exper import ExperimentSpec

    start = clock()
    topology = repro.data.generate_topology(
        repro.data.TopologyProfile(ases=document["ases"]),
        random.Random(topology_seed),
    )
    topology.compiled()
    spec = ExperimentSpec.from_json_dict(document["spec"])
    return clock() - start, topology, spec


class Runs:
    """Runs the grid repeatedly; one spec seed per run."""

    def __init__(self, workload: str, seed: int, workdir: Path,
                 outcome: Outcome, probe: SpeedProbe, topology, spec) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.outcome = outcome
        self.topology = topology
        self.spec = spec
        self.check: Callable = CHECKS[workload]
        self.executor: Optional[str] = None
        self.probe = probe

    def spec_seed(self, index: int) -> int:
        return derive_seed(self.seed, f"spec/{index}")

    def run_one(self, spec_seed: int, executor: Optional[str] = None
                ) -> Tuple[int, float, Tuple[float, float]]:
        """One ``run()`` into a fresh sink: (trials, wall, window)."""
        from repro.exper import ExperimentRunner
        from repro.results import JsonlSink

        spec = dataclasses.replace(self.spec, seed=spec_seed)
        trials = spec.total_trials
        path = self.workdir / f"run-{spec_seed}.jsonl"
        outcome = self.outcome
        outcome.attempted += trials
        self.probe.sample_if_due()
        start = clock()
        try:
            sink = JsonlSink(path)
            try:
                runner = ExperimentRunner(
                    self.topology, spec, executor=executor,
                    workers=WORKERS, sink=sink,
                )
                result = runner.run()
            finally:
                sink.close()
        except Exception as exc:  # counted, reported, and fails the run
            outcome.fail(trials, exc)
            path.unlink(missing_ok=True)
            return 0, clock() - start, (start, clock())
        end = clock()
        self.executor = self.executor or runner.executor
        label = f"seed {spec_seed}"
        self.check(result, outcome, label)
        expected = trials * len(spec.cells)
        records = path.read_bytes().count(b"\n") - 1
        outcome.check(
            records == expected,
            f"{label}: {records} records, expected {expected}",
        )
        path.unlink()
        return trials, end - start, (start, end)

    def loop(self, seconds: float, seeds: Optional[List[int]] = None,
             executor: Optional[str] = None):
        """Run until ``seconds`` of run wall (or through ``seeds``)."""
        done: List[Tuple[int, int, float, Tuple[float, float]]] = []
        index = 0
        wall = 0.0
        while (seeds is None or index < len(seeds)) and (
            wall < seconds or not done
        ):
            spec_seed = seeds[index] if seeds else self.spec_seed(index)
            trials, elapsed, window = self.run_one(spec_seed, executor)
            done.append((spec_seed, trials, elapsed, window))
            wall += elapsed
            index += 1
        return done


def rate(done) -> float:
    wall = sum(item[2] for item in done)
    return sum(item[1] for item in done) / wall if wall else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Outcome:
    outcome = Outcome()
    document = load_spec_document(workload)
    topology_seed = derive_seed(seed, "topology")

    probe = SpeedProbe()
    setup, (topology, spec) = repeated_setup(
        lambda: set_up(document, topology_seed), probe
    )
    runs = Runs(workload, seed, workdir, outcome, probe, topology, spec)

    untraced = runs.loop(seconds)
    print("run rates (trials/s):",
          " ".join(f"{t / w:.3f}" for _, t, w, _ in untraced))
    if not trace:
        trials = sum(item[1] for item in untraced)
        report_end_to_end(outcome, probe, rate(untraced), trials, setup)
        outcome.metric("trials_per_s", rate(untraced), "trials/s", trials)
        outcome.env["executor"] = runs.executor
        return outcome

    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    recorder = SpanRecorder(dump_dir=spans_dir)
    counters_before = layers.registry_counters()
    batches_before = layers.histogram_buckets("exper.batch_latency")
    layers.install(recorder)
    try:
        set_up(document, topology_seed)  # traced: topology.* spans
        traced = runs.loop(seconds)
    finally:
        recorder.uninstall()
    counters = layers.counter_deltas(counters_before)
    batch_p50 = layers.bucket_median(
        batches_before, layers.histogram_buckets("exper.batch_latency")
    )
    # Pool workers' tables carry their own registry deltas (fastprop.*).
    table = merge_tables([recorder.table()] + load_tables(spans_dir))
    for name, value in table["counters"].items():
        counters[name] = counters.get(name, 0) + value
    ops = sum(item[1] for item in traced)
    metrics = layers.layer_metrics(
        table, ops, counters=counters,
        windows=[item[3] for item in traced],
    )
    metrics["runner.batches"] = (
        counters.get("exper.batches_retired", 0) / max(ops, 1), ops,
    )
    metrics["runner.batch_latency_p50_s"] = (
        batch_p50 or 0.0, int(counters.get("exper.batches_retired", 0)),
    )
    traced_rate = rate(traced)
    metrics["trace.overhead_frac"] = (
        rate(untraced) / traced_rate - 1.0 if traced_rate else 0.0,
        len(traced),
    )
    if runs.executor not in (None, "serial"):
        # Scaling: the same trials, run plainly on the serial executor.
        serial = runs.loop(
            seconds, seeds=[item[0] for item in untraced],
            executor="serial",
        )
        parallel = untraced[: len(serial)]
        metrics["runner.scaling_efficiency"] = (
            rate(parallel) / (WORKERS * rate(serial)), len(serial),
        )
    outcome.env["executor"] = runs.executor
    layers.report(outcome, metrics)
    return outcome
