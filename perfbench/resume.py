"""The ``resume-large`` workload: resume cut run files.

Set-up records one uninterrupted run (the granularity cells on a
400-AS topology, a few hundred trials).  Each operation copies a
prefix of that file, cut at a seeded byte offset strictly inside one
of the last trials' record blocks, and resumes it the way
``repro-roa experiment --spec <file> --sink <run> --resume`` does:
one ``JsonlSink`` as both sink and resume source.  Its latency runs
from opening the cut file until ``run()`` returns the full aggregate,
which must equal the uninterrupted run's.

A resumed file may end with more lines than the uninterrupted one:
the cut trial's partial block stays in the file, and only read-time
de-duplication keeps the aggregate right.  Those lines are reported
as ``sinks.orphan_lines``, not as failures.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import List, Tuple

from common import (
    Outcome,
    clock,
    derive_seed,
    load_spec_document,
    SpeedProbe,
    percentile,
    repeated_setup,
    report_end_to_end,
    with_seed,
)
from experiments import set_up
import layers
from tracer import SpanRecorder

#: Cuts land inside one of this many final trials.
TAIL_TRIALS = 5
#: Resumes per timed loop at least, so >= 10 samples lie beyond p50.
MIN_RESUMES = 20


class Resumes:
    def __init__(self, seed: int, workdir: Path, outcome: Outcome,
                 probe: SpeedProbe, topology, spec) -> None:
        from repro.exper import ExperimentRunner
        from repro.results import JsonlSink

        self.seed = seed
        self.workdir = workdir
        self.outcome = outcome
        self.topology = topology
        self.spec = spec
        self.probe = probe
        reference = workdir / "reference.jsonl"
        sink = JsonlSink(reference)
        try:
            self.expected = ExperimentRunner(topology, spec, sink=sink).run()
        finally:
            sink.close()
        self.data = reference.read_bytes()
        self.lines = self.data.count(b"\n")
        # Trial blocks: one line per cell, after the header line.
        starts = [0]
        for _ in range(self.lines):
            starts.append(self.data.index(b"\n", starts[-1]) + 1)
        cells = len(spec.cells)
        self.blocks = [
            (starts[line], starts[line + cells])
            for line in range(1, self.lines, cells)
        ]
        outcome.check(
            len(self.blocks) == spec.total_trials
            and self.lines == 1 + spec.total_trials * cells,
            f"reference run has {self.lines} lines",
        )

    def cut(self, index: int) -> int:
        rng = random.Random(derive_seed(self.seed, f"cut/{index}"))
        start, end = rng.choice(self.blocks[-TAIL_TRIALS:])
        return rng.randrange(start + 1, end)

    def resume_one(self, index: int) -> Tuple[float, int, Tuple[float, float]]:
        """(wall, orphan lines, window) of one resume."""
        from repro.exper import ExperimentRunner
        from repro.results import JsonlSink

        path = self.workdir / f"cut-{index}.jsonl"
        path.write_bytes(self.data[: self.cut(index)])
        outcome = self.outcome
        outcome.attempted += 1
        self.probe.sample_if_due()
        start = clock()
        try:
            sink = JsonlSink(path)
            try:
                result = ExperimentRunner(
                    self.topology, self.spec, sink=sink, resume_from=sink
                ).run()
            finally:
                sink.close()
        except Exception as exc:  # counted, reported, and fails the run
            outcome.fail(1, exc)
            path.unlink(missing_ok=True)
            return clock() - start, 0, (start, clock())
        end = clock()
        outcome.check(
            result == self.expected,
            f"resume {index}: aggregate differs from the uninterrupted run",
        )
        orphans = path.read_bytes().count(b"\n") - self.lines
        outcome.check(orphans >= 0, f"resume {index}: {orphans} lines lost")
        path.unlink()
        return end - start, orphans, (start, end)

    def loop(self, seconds: float, first: int = 0):
        done: List[Tuple[float, int, Tuple[float, float]]] = []
        wall = 0.0
        while wall < seconds or len(done) < MIN_RESUMES:
            done.append(self.resume_one(first + len(done)))
            wall += done[-1][0]
        return done


def rate(done) -> float:
    return len(done) / sum(item[0] for item in done)


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Outcome:
    outcome = Outcome()
    document = with_seed(load_spec_document(workload),
                         derive_seed(seed, "spec"))
    topology_seed = derive_seed(seed, "topology")
    probe = SpeedProbe()
    setup, (topology, spec) = repeated_setup(
        lambda: set_up(document, topology_seed), probe
    )
    resumes = Resumes(seed, workdir, outcome, probe, topology, spec)
    outcome.env["executor"] = spec.executor

    untraced = resumes.loop(seconds)
    if not trace:
        walls = [item[0] for item in untraced]
        report_end_to_end(
            outcome, probe, rate(untraced), len(untraced), setup
        )
        value = percentile(walls, 0.5)
        if value is not None:
            outcome.metric("resume_p50_s", value, "s", len(walls))
        return outcome

    recorder = SpanRecorder()
    counters_before = layers.registry_counters()
    layers.install(recorder)
    try:
        set_up(document, topology_seed)  # traced: topology.* spans
        traced = resumes.loop(seconds, first=len(untraced))
    finally:
        recorder.uninstall()
    metrics = layers.layer_metrics(
        recorder.table(), len(traced),
        counters=layers.counter_deltas(counters_before),
        windows=[item[2] for item in traced],
    )
    metrics["sinks.orphan_lines"] = (
        sum(item[1] for item in traced) / len(traced), len(traced),
    )
    metrics["trace.overhead_frac"] = (
        rate(untraced) / rate(traced) - 1.0, len(traced),
    )
    layers.report(outcome, metrics)
    return outcome
