"""The ``jobs-http`` workload: a real ``repro-roa serve --jobs``
subprocess driven over HTTP by one closed-loop client.

The client submits a small interactive job (``POST /experiments``,
a distinct spec seed per job), polls ``GET /jobs/<id>`` every
``POLL_S`` until it is ``done``, then fetches
``GET /experiments/<run>/ci``.  Job latency runs from sending the
POST until the ``/ci`` body is in.

Every ``JobStore`` read re-scans the whole queue file, so latency
grows with queue history.  Set-up therefore seeds ``HISTORY_JOBS``
finished jobs through the public ``JobStore`` API, and a run always
measures exactly ``JOBS`` jobs from there: the history depth measured
at is fixed, and latency does not drift with run length.  (``JOBS``
rather than ``--seconds`` sets this workload's length, for the same
reason; at this size a run takes about 40 s.)
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from common import (
    BENCH_DIR,
    ROOT,
    BenchError,
    Outcome,
    clock,
    derive_seed,
    load_spec_document,
    SpeedProbe,
    Timing,
    median,
    percentile,
    report_end_to_end,
)
import layers

#: Jobs measured per run (>= 100, so >= 10 samples lie beyond p90).
JOBS = 110
#: Finished jobs seeded into the queue before the server starts.
HISTORY_JOBS = 25
#: The client's fixed poll interval.
POLL_S = 0.02
#: Server starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A job not done after this long counts as failed.
JOB_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0

LAUNCHER = BENCH_DIR / "serve_launcher.py"


def job_body(document: dict, seed: int, label: str, topology_seed: int) -> dict:
    spec = dict(document["spec"], seed=derive_seed(seed, label))
    return {"spec": spec, "ases": document["ases"],
            "topology_seed": topology_seed}


def seed_history(store_dir: Path, document: dict, seed: int,
                 topology_seed: int) -> None:
    """``HISTORY_JOBS`` enqueued-started-finished jobs, as a platform
    that has already run them would hold."""
    from repro.jobs import JobSpec, JobStore

    store = JobStore(store_dir)
    for index in range(HISTORY_JOBS):
        body = job_body(document, seed, f"history/{index}", topology_seed)
        job_id = store.enqueue(JobSpec.from_json_dict(body))
        store.mark(job_id, "started")
        store.mark(job_id, "finished")


class Server:
    """One ``repro-roa serve --jobs`` subprocess (via the launcher)."""

    def __init__(self, workdir: Path, store_dir: Path,
                 trace_dump: Optional[Path] = None) -> None:
        vrps = workdir / "vrps.csv"
        if not vrps.exists():
            vrps.write_text(
                "URI,ASN,IP Prefix,Max Length\n"
                "rsync://bench/roa-0.roa,AS64500,168.122.0.0/16,16\n",
                encoding="ascii",
            )
        command = [sys.executable, str(LAUNCHER)]
        if trace_dump is not None:
            command += ["--trace-dump", str(trace_dump)]
        command += [
            "--", "serve", str(vrps), "--jobs", "--jobs-store",
            str(store_dir), "--http-port", "0", "--rtr-port", "0",
        ]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.stderr_path = workdir / "server.stderr"
        self.stderr = open(self.stderr_path, "ab")
        started = clock()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        try:
            self.host, self.port = self._await_banner()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=JOB_TIMEOUT_S
            )
            self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = clock() - started

    def _await_banner(self) -> Tuple[str, int]:
        # Raw reads on the pipe's descriptor: a buffered readline could
        # hold the banner in its buffer while select() waits on an
        # empty pipe.
        deadline = clock() + SERVER_START_TIMEOUT_S
        fd = self.process.stdout.fileno()
        pending = b""
        while clock() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                if line.startswith(b"serving:"):
                    http_part = line.split(b"http=", 1)[1].split()[0]
                    host, port = http_part.decode().rsplit(":", 1)
                    return host, int(port)
        self.stderr.flush()
        tail = self.stderr_path.read_text("utf-8", "replace")[-2000:]
        raise BenchError(
            f"the jobs server did not start (exit {self.process.poll()}); "
            f"its stderr ends:\n{tail}"
        )

    def _await_ready(self) -> None:
        deadline = clock() + SERVER_START_TIMEOUT_S
        while clock() < deadline:
            try:
                status, _ = self.request("GET", "/readyz")
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.005)
        raise BenchError("the jobs server never became ready")

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            raise

    def stop(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.stderr.close()


class JobSample:
    __slots__ = ("run", "start", "submitted", "end", "submit_s", "polls",
                 "ci_s", "intervals")

    def __init__(self) -> None:
        self.polls: List[float] = []
        self.intervals: List[Tuple[float, float]] = []


def run_job(server: Server, body: dict, outcome: Outcome,
            probe: SpeedProbe) -> Optional[JobSample]:
    """One closed-loop job; ``None`` (and a counted failure) on error."""
    sample = JobSample()
    spec = body["spec"]
    expected = len(spec["cells"]) * len(spec["fractions"]) * spec["trials"]
    outcome.attempted += 1
    probe.sample_if_due()  # the previous job is done: the server is idle
    try:
        sample.start = clock()
        status, raw = server.request(
            "POST", "/experiments", json.dumps(body).encode()
        )
        sample.submitted = clock()
        sample.submit_s = sample.submitted - sample.start
        sample.intervals.append((sample.start, sample.submitted))
        if status != 201:
            raise BenchError(f"POST /experiments -> {status}: {raw[:200]!r}")
        reply = json.loads(raw)
        job = reply["job"]
        sample.run = run_id = reply["run"]
        while True:
            time.sleep(POLL_S)
            began = clock()
            status, raw = server.request("GET", f"/jobs/{job}")
            ended = clock()
            sample.polls.append(ended - began)
            sample.intervals.append((began, ended))
            state = json.loads(raw)
            if status != 200:
                raise BenchError(f"GET /jobs/{job} -> {status}")
            if state["status"] == "done":
                break
            if state["status"] not in ("queued", "running"):
                raise BenchError(f"{job} {state['status']}: {state['detail']}")
            if ended - sample.start > JOB_TIMEOUT_S:
                raise BenchError(f"{job} not done in {JOB_TIMEOUT_S}s")
        began = clock()
        status, raw = server.request("GET", f"/experiments/{run_id}/ci")
        sample.end = clock()
        sample.ci_s = sample.end - began
        sample.intervals.append((began, sample.end))
        if status != 200:
            raise BenchError(f"GET /experiments/{run_id}/ci -> {status}")
        document = json.loads(raw)
        records = document["records"]
        cells = document["result"]["cells"]
    except (BenchError, OSError, http.client.HTTPException, ValueError,
            KeyError) as exc:
        outcome.fail(1, exc)
        return None
    outcome.check(
        records == expected,
        f"{run_id}: {records} records, expected {expected}",
    )
    for cell in cells:
        if cell["cell"].endswith("/minimal") and cell["fraction"] == 1.0:
            outcome.check(
                cell["mean"] == 0.0,
                f"{run_id}: {cell['cell']}@1.0 mean {cell['mean']} != 0",
            )
    return sample


def check_direct_run(store_dir: Path, workdir: Path, body: dict,
                     run_id: str, outcome: Outcome) -> None:
    """Invariant 8: a job's run file is byte-identical to a direct
    ``ExperimentRunner`` run of the same spec."""
    from repro.exper import ExperimentRunner
    from repro.jobs import JobSpec
    from repro.results import JsonlSink

    job = JobSpec.from_json_dict(body)
    path = workdir / "direct.jsonl"
    sink = JsonlSink(path)
    try:
        ExperimentRunner(
            job.build_topology(), job.spec, workers=job.workers,
            shards=job.shards, sink=sink, resume_from=sink,
        ).run()
    finally:
        sink.close()
    job_bytes = (store_dir / "runs" / f"{run_id}.jsonl").read_bytes()
    outcome.check(
        path.read_bytes() == job_bytes,
        f"{run_id}: job run file differs from a direct run of its spec",
    )


def phase(workdir: Path, name: str, document: dict, seed: int,
          outcome: Outcome, probe: SpeedProbe, starts: int = 1,
          trace_dump: Optional[Path] = None):
    """Seed a fresh store, start the server ``starts`` times (the last
    one stays up), run ``JOBS`` jobs; returns the job samples, the
    queue's event count, and the start-up time (median)."""
    store_dir = workdir / f"store-{name}"
    topology_seed = derive_seed(seed, "topology")
    seed_history(store_dir, document, seed, topology_seed)
    setups: List[float] = []
    for attempt in range(starts):
        server = Server(workdir, store_dir, trace_dump)
        setups.append(server.setup_s)
        if attempt < starts - 1:
            server.stop()
    # Not scaled by the speed probe: a server start is process start-up
    # and imports, which the probe's memory-bound loop does not track.
    setup = Timing(median(setups), len(setups))
    samples: List[JobSample] = []
    bodies = []
    try:
        for index in range(JOBS):
            body = job_body(document, seed, f"job/{index}", topology_seed)
            sample = run_job(server, body, outcome, probe)
            if sample is not None:
                samples.append(sample)
                bodies.append(body)
    finally:
        server.stop()
    if samples:
        pick = derive_seed(seed, "compare") % len(samples)
        check_direct_run(
            store_dir, workdir, bodies[pick], samples[pick].run, outcome
        )
    events = (store_dir / "queue.jsonl").read_bytes().count(b"\n") - 1
    return samples, events, setup


def jobs_rate(samples: List[JobSample]) -> float:
    """Jobs per second of job wall (one client: latencies add up)."""
    wall = sum(s.end - s.start for s in samples)
    return len(samples) / wall if wall else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Outcome:
    del seconds  # the fixed job count sets the run length (see above)
    outcome = Outcome()
    document = load_spec_document(workload)
    probe = SpeedProbe()
    untraced, _, setup = phase(
        workdir, "plain", document, seed, outcome, probe,
        starts=1 if trace else SETUP_REPEATS,
    )
    outcome.env["executor"] = document["spec"]["executor"]
    if not trace:
        latencies = [s.end - s.start for s in untraced]
        report_end_to_end(
            outcome, probe, jobs_rate(untraced), len(untraced), setup
        )
        outcome.metric("jobs_per_s", jobs_rate(untraced), "jobs/s",
                       len(untraced))
        for name, q in (("job_latency_p50_s", 0.5), ("job_latency_p90_s", 0.9)):
            value = percentile(latencies, q)
            if value is not None:
                outcome.metric(name, value, "s", len(latencies))
        return outcome

    dump = workdir / "server-spans.json"
    traced, events, _ = phase(workdir, "traced", document, seed, outcome,
                              probe, trace_dump=dump)
    table = json.loads(dump.read_text("utf-8"))
    windows = [(s.start, s.end) for s in traced]
    requests = [iv for s in traced for iv in s.intervals]
    metrics = layers.layer_metrics(
        table, len(traced), counters=table["counters"], windows=windows,
        extra_intervals=requests,
    )
    run_starts = sorted(table["starts"].get("runner.run", []))
    if len(run_starts) == len(traced):
        metrics["scheduler.queue_wait_s"] = layers.p50(
            [begin - s.submitted for begin, s in zip(run_starts, traced)]
        )
    executing = [
        duration
        for start, duration in zip(
            table["starts"].get("scheduler.run_pending", []),
            table["durations"].get("scheduler.run_pending", []),
        )
        if any(start <= begin <= start + duration for begin in run_starts)
    ]
    metrics["scheduler.execute_s"] = layers.p50(executing)
    metrics["http.submit_s"] = layers.p50([s.submit_s for s in traced])
    metrics["http.poll_s"] = layers.p50([p for s in traced for p in s.polls])
    metrics["http.ci_s"] = layers.p50([s.ci_s for s in traced])
    metrics["http.polls_per_job"] = (
        sum(len(s.polls) for s in traced) / max(len(traced), 1), len(traced),
    )
    metrics["jobs_store.events"] = (events, 1)
    traced_rate = jobs_rate(traced)
    metrics["trace.overhead_frac"] = (
        jobs_rate(untraced) / traced_rate - 1.0 if traced_rate else 0.0,
        len(traced),
    )
    layers.report(outcome, metrics)
    return outcome
