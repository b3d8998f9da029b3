"""Pure trial evaluation: (topology, spec, trial) → TrialRecords.

One trial evaluates *every* grid cell, in order — a paired design:
every cell sees the same (victim, attackers) cast and the same
validator sample, so cell-to-cell differences measure the policy, not
the noise.  Tie-break luck is paired too, among the propagations that
have any: a single-seed propagation (the victim's covering route, a
lone subprefix attacker) has an adoption outcome independent of
tie-breaks and draws nothing, while the multi-seed propagations
(same-prefix attacks, several attackers) share one tie-break RNG
seeded from the trial, consumed in cell order.  Both engines follow
that rule, so they stay byte-identical.

All cells — the four historical single-attacker variants and the
scenario space the old loops could not express (multiple simultaneous
attackers, AS-path-prepended announcements) — evaluate through one
shared core, :func:`repro.bgp.attacks.evaluate_attack_seeds`, or, for
the array engine's trial streams, its batched form
:func:`repro.bgp.fastprop.evaluate_attack_seeds_array_batch` over a
chunk of trials; this module only builds the attacker seed lists and
the chunks.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional, Union

from ..bgp.attacks import evaluate_attack_seeds
from ..bgp.fastprop import (
    AttackCase,
    PropagationWorkspace,
    evaluate_attack_seeds_array_batch,
)
from ..bgp.simulation import Seed
from ..bgp.topology import AsTopology, CompiledTopology
from ..netbase.errors import ReproError
from .scenarios import AttackConfig
from .spec import ExperimentSpec, TrialSpec

__all__ = [
    "RECORD_SCHEMA",
    "TrialRecord",
    "evaluate_trial",
    "evaluate_trials",
]

#: Trials whose draw-free cells share one batch call.  The granularity
#: grid needs two non-empty lanes per trial, so a chunk fills about one
#: lane pass (``fastprop._LANE_CAP``).
_CHUNK = 32

#: Version of the TrialRecord wire schema.  Bump it when the field
#: list below changes; readers reject records from other versions
#: rather than guessing at their meaning.
RECORD_SCHEMA = 1

#: The exact wire field list, in serialization order.  ``to_json_dict``
#: emits these plus ``"schema"``; ``from_json_dict`` requires all of
#: them and rejects anything else — silent drift between writer and
#: reader is how archived runs rot.
_RECORD_FIELDS = (
    "fraction_index",
    "trial_index",
    "cell_index",
    "fraction",
    "cell",
    "victim",
    "attackers",
    "attacker_fraction",
    "victim_fraction",
    "disconnected_fraction",
    "attack_route_filtered",
)

_INF = float("inf")

#: ``to_json_line``'s encoded ``"cell":…,"cell_index":…`` segments,
#: by (cell, cell index).  A run has a handful of cells; the cache is
#: cleared if a long-lived process ever fills it.
_CELL_SEGMENTS: dict[tuple[str, int], str] = {}

#: ``to_json_line``'s last trial segment, ``"fraction":…`` through
#: ``"victim":…``, keyed by (fraction, fraction index, trial index,
#: victim).  A trial's records are encoded together, so one entry
#: serves the whole block.
_trial_segment: tuple = (object(), -1, -1, -1, "")


@dataclass(frozen=True)
class TrialRecord:
    """The outcome of one (trial, cell) evaluation.

    Attributes:
        fraction_index / trial_index / cell_index: grid coordinates.
        fraction: the validating fraction (``None`` = universal).
        cell: the cell's name.
        victim / attackers: the trial's cast (this cell's slice).
        attacker_fraction / victim_fraction / disconnected_fraction:
            shares of judged ASes routing the attacked space to each
            party (or nowhere).
        attack_route_filtered: True when validation removed every
            attacker announcement everywhere.
    """

    fraction_index: int
    trial_index: int
    cell_index: int
    fraction: Optional[float]
    cell: str
    victim: int
    attackers: tuple[int, ...]
    attacker_fraction: float
    victim_fraction: float
    disconnected_fraction: float
    attack_route_filtered: bool

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.fraction_index, self.trial_index, self.cell_index)

    # ------------------------------------------------------------------
    # Versioned wire schema (the repro.results JSONL line format)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """This record as a schema-versioned, JSON-ready dict."""
        data: dict = {"schema": RECORD_SCHEMA}
        for name in _RECORD_FIELDS:
            value = getattr(self, name)
            if name == "attackers":
                value = list(value)
            data[name] = value
        return data

    def to_json_line(self) -> bytes:
        """This record as one canonical JSONL line: the JSON of
        :meth:`to_json_dict` with sorted keys and compact separators,
        plus a newline — byte for byte what a sink writes.

        The hot path formats the fixed field set directly, numbers
        through ``repr``: for every value :meth:`from_json_dict`
        accepts, that is the JSON text, except a NaN or an infinity,
        which takes the generic encoder.  The cell's and the trial's
        fields are formatted once and reused (see
        :data:`_CELL_SEGMENTS`, :data:`_trial_segment`).
        """
        global _trial_segment
        a = self.attacker_fraction
        v = self.victim_fraction
        d = self.disconnected_fraction
        fraction = self.fraction
        if not (
            -_INF < a < _INF and -_INF < v < _INF and -_INF < d < _INF
            and (fraction is None or -_INF < fraction < _INF)
        ):
            return (
                json.dumps(
                    self.to_json_dict(), sort_keys=True,
                    separators=(",", ":"),
                ) + "\n"
            ).encode()
        cell_key = (self.cell, self.cell_index)
        cell_segment = _CELL_SEGMENTS.get(cell_key)
        if cell_segment is None:
            if len(_CELL_SEGMENTS) >= 4096:
                _CELL_SEGMENTS.clear()
            cell_segment = _CELL_SEGMENTS[cell_key] = (
                f'"cell":{encode_basestring_ascii(self.cell)},'
                f'"cell_index":{self.cell_index!r}'
            )
        # One tuple read and one tuple write, so threads encoding
        # records of different trials never see a torn entry.  The
        # fraction is matched by identity: equal floats may differ in
        # text (0.0 and -0.0), one object never does.
        cached = _trial_segment
        if (
            cached[0] is not fraction
            or cached[1] != self.fraction_index
            or cached[2] != self.trial_index
            or cached[3] != self.victim
        ):
            cached = _trial_segment = (
                fraction, self.fraction_index, self.trial_index,
                self.victim,
                f'"fraction":'
                f'{"null" if fraction is None else repr(fraction)},'
                f'"fraction_index":{self.fraction_index!r},'
                f'"schema":{RECORD_SCHEMA},'
                f'"trial_index":{self.trial_index!r},'
                f'"victim":{self.victim!r}',
            )
        attackers = self.attackers
        attackers_text = (
            repr(attackers[0]) if len(attackers) == 1
            else ",".join(map(repr, attackers))
        )
        return (
            f'{{"attack_route_filtered":'
            f'{"true" if self.attack_route_filtered else "false"},'
            f'"attacker_fraction":{a!r},"attackers":[{attackers_text}],'
            f'{cell_segment},"disconnected_fraction":{d!r},'
            f'{cached[4]},"victim_fraction":{v!r}}}\n'
        ).encode()

    @classmethod
    def from_json_dict(cls, data: object) -> "TrialRecord":
        """Decode one wire dict, strictly.

        Unknown fields, missing fields, or a schema version this
        reader does not speak all raise :class:`ReproError` — a record
        that cannot be decoded faithfully must not be decoded at all.
        """
        if not isinstance(data, dict):
            raise ReproError(f"trial record must be an object, not {data!r}")
        schema = data.get("schema")
        if schema != RECORD_SCHEMA:
            raise ReproError(
                f"trial record schema {schema!r} is not the supported "
                f"schema {RECORD_SCHEMA}"
            )
        missing = [n for n in _RECORD_FIELDS if n not in data]
        if missing:
            raise ReproError(f"trial record missing fields {missing}")
        unknown = sorted(set(data) - set(_RECORD_FIELDS) - {"schema"})
        if unknown:
            raise ReproError(f"trial record has unknown fields {unknown}")
        def bad(name: str) -> ReproError:
            return ReproError(
                f"bad trial record value: {name}={data[name]!r}"
            )

        # Exact JSON types, no coercion: int("3"), bool("false"), or a
        # string iterated as an attacker list would all decode to
        # something the writer never meant.
        def as_int(name: str) -> int:
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise bad(name)
            return value

        def as_float(name: str) -> float:
            value = data[name]
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise bad(name)
            return float(value)

        fraction = data["fraction"]
        if not isinstance(data["cell"], str):
            raise bad("cell")
        if fraction is not None and (
            isinstance(fraction, bool)
            or not isinstance(fraction, (int, float))
        ):
            raise bad("fraction")
        attackers = data["attackers"]
        if isinstance(attackers, str) or not isinstance(
            attackers, (list, tuple)
        ):
            raise bad("attackers")
        for attacker in attackers:
            if isinstance(attacker, bool) or not isinstance(
                attacker, int
            ):
                raise bad("attackers")
        if not isinstance(data["attack_route_filtered"], bool):
            raise bad("attack_route_filtered")
        return cls(
            fraction_index=as_int("fraction_index"),
            trial_index=as_int("trial_index"),
            cell_index=as_int("cell_index"),
            fraction=None if fraction is None else float(fraction),
            cell=data["cell"],
            victim=as_int("victim"),
            attackers=tuple(attackers),
            attacker_fraction=as_float("attacker_fraction"),
            victim_fraction=as_float("victim_fraction"),
            disconnected_fraction=as_float("disconnected_fraction"),
            attack_route_filtered=data["attack_route_filtered"],
        )


def evaluate_trial(
    topology: Union[AsTopology, CompiledTopology],
    spec: ExperimentSpec,
    trial: TrialSpec,
    *,
    workspace: Optional[PropagationWorkspace] = None,
) -> list[TrialRecord]:
    """Evaluate every cell of the spec for one materialized trial.

    ``topology`` may be a pre-compiled topology when the spec runs the
    array engine (workers receive only the compiled form).
    ``workspace`` — one per worker — lets the array engine reuse
    propagation state across trials; results are byte-identical with
    or without it (a tested invariant), so it is purely a throughput
    knob.  The object engine ignores it.
    """
    if spec.engine == "array" and workspace is not None:
        chunk = _chunk_cases(spec, [trial])
        lane_outcomes = _lane_outcomes(topology, chunk, workspace)
        return _trial_records(
            topology, spec, *chunk[0], lane_outcomes, workspace
        )
    tie_rng = random.Random(trial.tie_seed)
    prepared = _prepare(spec, trial)
    outcomes = [
        evaluate_attack_seeds(
            topology, trial.victim, spec.victim_prefix, attack_prefix,
            list(seeds),
            vrp_index=vrp_index,
            validating_ases=trial.validating_ases,
            rng=tie_rng,
            engine=spec.engine,
        )
        for _, attack_prefix, vrp_index, seeds in prepared
    ]
    return _records(spec, trial, prepared, outcomes)


def _prepare(spec: ExperimentSpec, trial: TrialSpec) -> list[tuple]:
    """Per cell: (attackers, attack prefix, VRP index, attacker seeds)."""
    victim_prefix = spec.victim_prefix
    subprefix = spec.effective_attack_prefix
    prepared = []
    for cell in spec.cells:
        attack = cell.attack
        attackers = trial.attackers[: attack.attackers]
        attack_prefix = attack.attack_prefix_for(victim_prefix, subprefix)
        vrp_index = cell.policy.vrp_index(
            trial.victim, victim_prefix, attack_prefix, trial.trial_bits
        )
        seeds = tuple(
            _attacker_seed(attack, attacker, trial.victim)
            for attacker in attackers
        )
        prepared.append((attackers, attack_prefix, vrp_index, seeds))
    return prepared


def _records(
    spec: ExperimentSpec,
    trial: TrialSpec,
    prepared: list[tuple],
    outcomes: list[tuple[tuple[float, float, float], bool]],
) -> list[TrialRecord]:
    fraction = spec.fractions[trial.fraction_index]
    return [
        TrialRecord(
            fraction_index=trial.fraction_index,
            trial_index=trial.trial_index,
            cell_index=cell_index,
            fraction=fraction,
            cell=cell.name,
            victim=trial.victim,
            attackers=attackers,
            attacker_fraction=fractions[0],
            victim_fraction=fractions[1],
            disconnected_fraction=fractions[2],
            attack_route_filtered=filtered,
        )
        for cell_index, (cell, (attackers, _, _, _), (fractions, filtered))
        in enumerate(zip(spec.cells, prepared, outcomes))
    ]


def _chunk_cases(
    spec: ExperimentSpec, trials: list[TrialSpec]
) -> list[tuple[TrialSpec, list[tuple], list[AttackCase]]]:
    """Per trial: (trial, prepared cells, one attack case per cell)."""
    victim_prefix = spec.victim_prefix
    chunk = []
    for trial in trials:
        cells = _prepare(spec, trial)
        chunk.append((trial, cells, [
            AttackCase(
                trial.victim, victim_prefix, attack_prefix, seeds,
                vrp_index=vrp_index,
                validating_ases=trial.validating_ases,
            )
            for _, attack_prefix, vrp_index, seeds in cells
        ]))
    return chunk


def _lane_outcomes(
    topology: Union[AsTopology, CompiledTopology],
    chunk: list[tuple[TrialSpec, list[tuple], list[AttackCase]]],
    workspace: PropagationWorkspace,
) -> Iterator[tuple[tuple[float, float, float], bool]]:
    """The outcomes of every draw-free case of the chunk, in order:
    one batch call, so they share lane passes across trials."""
    free = [case for _, _, cases in chunk for case in cases if not case.draws]
    return iter(evaluate_attack_seeds_array_batch(
        topology, free, workspace=workspace
    ) if free else ())


def _trial_records(
    topology: Union[AsTopology, CompiledTopology],
    spec: ExperimentSpec,
    trial: TrialSpec,
    cells: list[tuple],
    cases: list[AttackCase],
    lane_outcomes: Iterator[tuple[tuple[float, float, float], bool]],
    workspace: PropagationWorkspace,
) -> list[TrialRecord]:
    """One trial's records: its drawing cases on its own tie-break
    stream, in cell order, merged with its share of the lane
    outcomes."""
    drawing = [case for case in cases if case.draws]
    drawn = iter(evaluate_attack_seeds_array_batch(
        topology, drawing,
        rng=random.Random(trial.tie_seed),
        workspace=workspace,
    ) if drawing else ())
    return _records(spec, trial, cells, [
        next(drawn) if case.draws else next(lane_outcomes)
        for case in cases
    ])


def evaluate_trials(
    topology: Union[AsTopology, CompiledTopology],
    spec: ExperimentSpec,
    trials: Iterable[TrialSpec],
    *,
    workspace: Optional[PropagationWorkspace] = None,
    observe: Optional[Callable[[TrialSpec, float], None]] = None,
    first_chunk: Optional[int] = None,
) -> Iterator[TrialRecord]:
    """Evaluate a stream of trials with one shared workspace.

    The batched evaluation path every executor uses.  The array engine
    (given a workspace, or one created here) pulls ``first_chunk``
    trials (default ``_CHUNK``), then ``_CHUNK`` at a time; a
    streaming reader that wants its first record after one trial
    passes ``first_chunk=1``, at the price of one more lane pass.  One
    batch call evaluates every cell of the chunk that draws nothing,
    so those share bit-parallel lane passes; then each trial's drawing
    cells run on its own tie-break stream and its records go out,
    trial by trial, in order.  Record content is byte-identical to
    mapping :func:`evaluate_trial` over the same trials, whatever the
    chunking.  Pulling a chunk ahead means early stopping may
    evaluate up to ``_CHUNK - 1`` trials past its stop; the stop
    tracker drops their records.

    ``observe`` — called as ``observe(trial, seconds)`` for each trial
    before its records are yielded — is the runner's per-trial latency
    hook: a trial's own drawing cells plus an even share of its
    chunk's lane pass.  It is pure observation and must not mutate
    anything the trial reads.  When it is ``None`` (telemetry off) no
    clocks are read at all.
    """
    if spec.engine != "array":
        yield from _evaluate_each(topology, spec, trials, None, observe)
        return
    if workspace is None:
        workspace = PropagationWorkspace(topology)
    clock = time.perf_counter
    stream = iter(trials)
    size = first_chunk or _CHUNK
    while True:
        chunk = list(itertools.islice(stream, size))
        if not chunk:
            return
        size = _CHUNK
        start = clock() if observe is not None else 0.0
        try:
            cases = _chunk_cases(spec, chunk)
            lane_outcomes = _lane_outcomes(topology, cases, workspace)
        except ReproError:
            # A trial that cannot be evaluated: go one by one, so the
            # trials before it still yield their records and the error
            # surfaces from that trial, as unchunked evaluation would.
            yield from _evaluate_each(
                topology, spec, chunk, workspace, observe
            )
            raise
        if observe is not None:
            share = (clock() - start) / len(chunk)
        # Each trial's drawing cells run after the shared lane pass, so
        # its records go out as soon as they are done, and a drawing
        # cell that fails does so in trial order.
        for trial, cells, trial_cases in cases:
            if observe is not None:
                start = clock()
            records = _trial_records(
                topology, spec, trial, cells, trial_cases,
                lane_outcomes, workspace,
            )
            if observe is not None:
                observe(trial, share + clock() - start)
            yield from records


def _evaluate_each(
    topology: Union[AsTopology, CompiledTopology],
    spec: ExperimentSpec,
    trials: Iterable[TrialSpec],
    workspace: Optional[PropagationWorkspace],
    observe: Optional[Callable[[TrialSpec, float], None]],
) -> Iterator[TrialRecord]:
    """:func:`evaluate_trial` over ``trials``, one at a time."""
    if observe is None:
        for trial in trials:
            yield from evaluate_trial(
                topology, spec, trial, workspace=workspace
            )
        return
    clock = time.perf_counter
    for trial in trials:
        start = clock()
        records = evaluate_trial(
            topology, spec, trial, workspace=workspace
        )
        observe(trial, clock() - start)
        yield from records


def _attacker_seed(
    attack: AttackConfig, attacker: int, victim: int
) -> Seed:
    """The (possibly prepended) announcement of one attacker."""
    head = (attacker,) * (1 + attack.prepend)
    if attack.kind.forges_origin:
        return Seed(attacker, head + (victim,))
    return Seed(attacker, head)
