"""Shared pieces of the benchmark: paths, seeds, statistics, results.

Nothing here imports ``repro``; :func:`import_repro` puts the
checkout's ``src/`` on ``sys.path`` first, so the benchmark runs the
program from source in whatever checkout it is copied into.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPECS = BENCH_DIR / "specs"
#: Scratch space for run files and job stores; inside the checkout,
#: ignored by git, and removed at the end of every run.
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad input)."""


def import_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}; run from a checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed derived from the workload seed and a label."""
    digest = hashlib.blake2b(
        f"perfbench/{seed}/{label}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def load_spec_document(workload: str) -> dict:
    """The workload's input in the jobs wire format:
    ``{"spec": <ExperimentSpec JSON>, "ases": ..., ...}``."""
    return json.loads((SPECS / f"{workload}.json").read_text("utf-8"))


def with_seed(document: dict, seed: int) -> dict:
    spec = dict(document["spec"], seed=seed)
    return dict(document, spec=spec)


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run still uses it
    except OSError:
        pass


def child_pids() -> List[int]:
    """Every live or unreaped child of this process (Linux ``/proc``)."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised name: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry.name))
    return found


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop and reap every process this run started.

    A process-pool run leaves ``multiprocessing``'s resource tracker
    behind: it exits only when its pipe closes, which would happen
    after this process is gone, leaving it to outlive the run.  Stop
    it first, then wait for any other child, and terminate, then kill,
    whatever has not ended by the deadline.
    """
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            if sig is not None:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = clock() + timeout_s
        while not all(_reaped(pid) for pid in pids):
            # A killed process always ends; wait for it without limit.
            if sig is not signal.SIGKILL and clock() >= deadline:
                break
            time.sleep(0.01)


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def repeated_setup(set_up, probe: "SpeedProbe", min_repeats: int = 5,
                   min_seconds: float = 1.0):
    """Call ``set_up()`` (which returns ``(seconds, *parts)``) at least
    ``min_repeats`` times and until ``min_seconds`` of set-up time has
    accumulated, so small set-ups repeat many times and their median
    stays steady.  Returns the median set-up time and the last call's
    parts.

    The probe is timed between blocks of calls that take at least as
    long as the probe, and each call is scaled by the machine speed of
    the two probe times around its block: the speed can swing by a
    factor of two within a second, so one factor for the whole set-up
    tracks it poorly.  These times are not added to the probe's
    samples, which scale the timed phase.  Each call starts from a
    collected heap: otherwise the garbage of the previous call's
    topology falls to the cyclic collector at a varying point inside
    the next one."""
    before = probe.time()
    block: List[float] = []
    scaled: List[float] = []

    def scale_block() -> None:
        nonlocal before
        after = probe.time()
        speed = (before + after) / (2 * PROBE_REFERENCE_S)
        scaled.extend(elapsed / speed for elapsed in block)
        block.clear()
        before = after

    total = 0.0
    while len(scaled) + len(block) < min_repeats or total < min_seconds:
        parts = None  # release the previous call's topology first
        gc.collect()
        elapsed, *parts = set_up()
        block.append(elapsed)
        total += elapsed
        if sum(block) >= PROBE_REFERENCE_S:
            scale_block()
    if block:
        scale_block()
    return Timing(median(scaled), len(scaled)), parts


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile, or ``None`` when fewer than ten samples lie
    beyond it (the benchmark reports no percentile it cannot back)."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(n - 1, int(q * n))]


#: The speed probe: a pointer chase through a random permutation of
#: this many slots (4 MiB in two arrays), this many steps per sample;
#: and its mean time on the 2-core box the bounds in BENCHMARK.json
#: were set on.
PROBE_SLOTS = 1 << 18
PROBE_STEPS = 200_000
PROBE_REFERENCE_S = 0.1
#: Workloads sample the probe before a timed operation when the last
#: sample is older than this.
PROBE_INTERVAL_S = 1.0


class SpeedProbe:
    """How fast this machine runs the interpreter at the moment.

    On a shared box the CPU speed itself drifts, by up to ±25% over
    seconds and minutes, and the drift moves a fixed loop and the
    workload together.  The workloads time the probe loop right before
    timed operations, and scale their end-to-end rates and times by
    :meth:`factor`, the probe's mean time over its reference time: a
    figure then reads as on the reference box at its usual speed (see
    ``perfbench/README.md``).  The loop chases pointers through memory
    that does not fit a core's private caches, as trial evaluation
    does, and it is the benchmark's own code, so no change to the
    program moves it.
    """

    def __init__(self) -> None:
        self._next = array("q", range(PROBE_SLOTS))
        random.Random(0).shuffle(self._next)
        self._cells = array("q", bytes(8 * PROBE_SLOTS))
        self.samples: List[float] = []
        self._last = float("-inf")

    def time(self) -> float:
        """One pass of the loop, in seconds (not recorded)."""
        nxt, cells, slot = self._next, self._cells, 0
        start = clock()
        for step in range(PROBE_STEPS):
            slot = nxt[slot]
            cells[slot] += step
        return clock() - start

    def sample(self) -> None:
        self.samples.append(self.time())
        self._last = clock()

    def sample_if_due(self) -> None:
        if clock() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Mean probe time of the samples ÷ the reference."""
        if not self.samples:
            return 1.0
        return statistics.mean(self.samples) / PROBE_REFERENCE_S


def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


class Timing(NamedTuple):
    seconds: float
    samples: int


def report_end_to_end(outcome: "Outcome", probe: SpeedProbe, rate: float,
                      ops: int, setup: Timing) -> None:
    """The metrics ``BENCHMARK.json`` lists; ``rate`` is scaled by the
    speed probe here, ``setup`` already is (or is not scaled at all)."""
    factor = probe.factor()
    outcome.metric("ops_per_s", rate * factor, "1/s", ops)
    outcome.metric("setup_s", setup.seconds, "s", setup.samples)
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1)
    outcome.metric("speed_factor", factor, "ratio", len(probe.samples))


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def git_sha() -> str:
    # The ceiling keeps git from reading repositories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """blake2b over every file under ``src/``: identifies the program
    where the checkout carries no git metadata."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(executor: str) -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "cpu_count": os.cpu_count(),
        "executor": executor,
        "python": platform.python_version(),
    }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.checks_failed: List[str] = []
        self.metrics: Dict[str, tuple] = {}  # name -> (value, unit, n)
        self.env: Dict[str, object] = {}

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            if len(self.checks_failed) < 20:
                self.checks_failed.append(what)
            elif self.checks_failed[-1] != "...":
                self.checks_failed.append("...")
        return ok

    def fail(self, ops: int, error: BaseException) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(f"{type(error).__name__}: {error}")

    def metric(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (value, unit, n)

    @property
    def correct(self) -> bool:
        return not self.checks_failed and self.failed == 0

    def report(self, names: Sequence[str]) -> dict:
        """Print the human table and return the result object."""
        print(f"environment: {json.dumps(self.env, sort_keys=True)}")
        width = max((len(name) for name in self.metrics), default=10)
        for name, (value, unit, n) in sorted(self.metrics.items()):
            print(f"  {name:<{width}}  {value:>14.6g} {unit:<10} n={n}")
        rate = self.failed / self.attempted if self.attempted else 1.0
        print(
            f"  {'error_rate':<{width}}  {rate:>14.6g} {'ratio':<10} "
            f"n={self.attempted}"
        )
        for line in self.errors:
            print(f"error: {line}")
        for line in self.checks_failed:
            print(f"check failed: {line}")
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in names if name in self.metrics
            },
        }
