"""Draw-free single-seed propagation: the reachability passes.

A single-seed propagation's adopted set does not depend on tie-break
draws, so attack evaluation answers it with
:func:`repro.bgp.fastprop._reach` — three breadth-first passes, no
RNG — or, for a batch, with the bit-parallel lane pass
(:func:`repro.bgp.fastprop._lane_pass`).  These properties pin
``_reach`` against the drawing sweep and the object engine, and the
lane pass against ``_reach`` lane by lane, on random topologies
(cycles included), seed paths, RFC 6811 verdicts and validator sets.
They pin invariants 3 (object/array equivalence) and 4 (workspace and
batch equivalence) on random multi-cell specs that mix single-seed and
multi-seed cells, at chunk boundaries, and through every executor.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bgp import AsTopology, Seed, VrpIndex, propagate_prefix
from repro.bgp.attacks import evaluate_attack_seeds
from repro.bgp.fastprop import (
    _LANE_CAP,
    AttackCase,
    PropagationWorkspace,
    _lane_pass,
    _propagate,
    _reach,
    _single_seed_outcome,
    evaluate_attack_seeds_array,
    evaluate_attack_seeds_array_batch,
)
from repro.bgp.simulation import SimulationError
from repro.data.asgraph import TopologyProfile, generate_topology
from repro.exper import (
    AttackConfig,
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    ScenarioCell,
    aggregate_records,
    evaluate_trial,
    evaluate_trials,
    materialize_trials,
)
from repro.exper import evaluate as evaluate_module
from repro.netbase import Prefix
from repro.obs import MetricsRegistry
from repro.results import JsonlSink, read_run
from repro.rpki import Vrp

PFX = Prefix.parse("168.122.0.0/16")
SUB = Prefix.parse("168.122.0.0/24")


@st.composite
def random_graphs(draw) -> AsTopology:
    """Arbitrary small relationship graphs — cycles and all."""
    size = draw(st.integers(2, 20))
    node = st.integers(0, size - 1)
    raw = draw(st.lists(
        st.tuples(node, node, st.sampled_from(["c2p", "p2p"])),
        min_size=1, max_size=50,
    ))
    edges, pairs = [], set()
    for a, b, kind in raw:
        pair = frozenset((a, b))
        if a != b and pair not in pairs:
            pairs.add(pair)
            edges.append((100 + a, 100 + b, kind))
    assume(edges)
    return AsTopology.from_edges(edges)


@st.composite
def single_seed_cases(draw):
    """(topology, seed, VRP index, validators) for one propagation."""
    topology = draw(random_graphs())
    ases = sorted(topology.ases)
    origin = draw(st.sampled_from(ases))
    victim = draw(st.sampled_from(ases))
    prepend = draw(st.integers(0, 2))
    forged = draw(st.booleans()) and victim != origin
    path = (origin,) * (1 + prepend) + ((victim,) if forged else ())
    seed = Seed(origin, path)
    vrps = draw(st.sampled_from([
        None,
        [Vrp(PFX, 24, victim)],  # VALID when the path ends in the victim
        [Vrp(PFX, 16, victim)],  # INVALID for the /24, whoever claims it
        [Vrp(PFX, 24, origin)],  # VALID for an honest origination
    ]))
    vrp_index = None if vrps is None else VrpIndex(vrps)
    validators = draw(st.one_of(
        st.none(), st.frozensets(st.sampled_from(ases)),
    ))
    return topology, seed, vrp_index, validators, victim


class TestReachabilityPass:
    @settings(max_examples=300, deadline=None)
    @given(single_seed_cases(), st.integers(0, 2**32))
    def test_pass_equals_sweep_and_object_engine(self, case, rng_seed):
        topology, seed, vrp_index, validators, _victim = case
        compiled = topology.compiled()
        state, _lane = _propagate(
            compiled, SUB, [seed], vrp_index, validators, None
        )
        expected = (bytes(state.adopted), state.counts[0])

        fresh = _single_seed_outcome(
            compiled, SUB, seed, vrp_index, validators, None
        )
        assert (bytes(fresh[0]), fresh[1]) == expected

        workspace = PropagationWorkspace(topology)
        workspace.begin(validators)
        for _ in range(2):  # a miss, then a profile hit
            cached = _single_seed_outcome(
                compiled, SUB, seed, vrp_index, validators, workspace
            )
            assert (bytes(cached[0]), cached[1]) == expected
            assert not any(workspace.lane(0).adopted)

        # The tie-break picks parents, never the adopted set.
        drawn, _lane = _propagate(
            compiled, SUB, [seed], vrp_index, validators,
            random.Random(rng_seed),
        )
        assert bytes(drawn.adopted) == expected[0]

        routes = propagate_prefix(
            topology, SUB, [seed],
            vrp_index=vrp_index, validating_ases=validators,
        )
        assert sorted(routes) == [
            asn for asn, flag in zip(compiled.asns, expected[0]) if flag
        ]

    @settings(max_examples=200, deadline=None)
    @given(single_seed_cases(), st.booleans(), st.integers(0, 2**32))
    def test_attack_evaluation_agrees_across_engines(
        self, case, same_prefix, rng_seed
    ):
        topology, seed, vrp_index, validators, victim = case
        assume(seed.asn != victim and len(topology) > 2)
        attack_prefix = PFX if same_prefix else SUB
        outcomes, states = [], []
        for engine, workspace in (
            ("object", None),
            ("array", None),
            ("array", PropagationWorkspace(topology)),
        ):
            rng = random.Random(rng_seed)
            outcomes.append(evaluate_attack_seeds(
                topology, victim, PFX, attack_prefix, [seed],
                vrp_index=vrp_index, validating_ases=validators,
                rng=rng, engine=engine, workspace=workspace,
            ))
            states.append(rng.getstate())
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert states[0] == states[1] == states[2]
        if not same_prefix:
            # A lone subprefix announcement draws nothing at all.
            assert states[0] == random.Random(rng_seed).getstate()


# ----------------------------------------------------------------------
# Invariants 3 and 4 on random multi-cell specs
# ----------------------------------------------------------------------

_CELL_POOL = tuple(
    ScenarioCell(AttackConfig(kind, attackers, prepend), policy)
    for kind in (
        "prefix-hijack", "subprefix-hijack",
        "forged-origin", "forged-origin-subprefix",
    )
    for attackers, prepend in ((1, 0), (2, 0), (1, 2))
    for policy in (MinimalRoa(), MaxLengthLooseRoa(), NoRoa())
)


@functools.lru_cache(maxsize=8)
def _synthetic(ases: int, seed: int) -> AsTopology:
    return generate_topology(TopologyProfile(ases=ases), random.Random(seed))


@st.composite
def mixed_specs(draw):
    topology = _synthetic(
        draw(st.sampled_from([40, 70])), draw(st.integers(0, 2))
    )
    cells = draw(st.lists(
        st.sampled_from(_CELL_POOL),
        min_size=2, max_size=5, unique_by=lambda cell: cell.name,
    ))
    spec = ExperimentSpec(
        cells=tuple(cells),
        trials=2,
        seed=draw(st.integers(0, 2**16)),
        fractions=draw(st.sampled_from([(None,), (0.5,), (0.0, 1.0)])),
        seeding=draw(st.sampled_from(["derived", "stream"])),
        engine="object",
    )
    return topology, spec


class TestMixedSpecEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(mixed_specs())
    def test_records_identical_across_engines_and_workspaces(self, case):
        topology, by_object_spec = case
        array_spec = dataclasses.replace(by_object_spec, engine="array")
        trials = materialize_trials(array_spec, topology)
        assert trials == materialize_trials(by_object_spec, topology)

        by_object = [
            record
            for trial in trials
            for record in evaluate_trial(topology, by_object_spec, trial)
        ]
        by_array = [
            record
            for trial in trials
            for record in evaluate_trial(topology, array_spec, trial)
        ]
        workspace = PropagationWorkspace(topology)
        by_workspace = [
            record
            for trial in trials
            for record in evaluate_trial(
                topology, array_spec, trial, workspace=workspace
            )
        ]
        streamed = list(evaluate_trials(topology, array_spec, trials))
        assert by_object == by_array == by_workspace == streamed


# ----------------------------------------------------------------------
# The lane pass against _reach, lane by lane
# ----------------------------------------------------------------------


@st.composite
def lane_sets(draw):
    """(topology, [(seed, INVALID?, validators)]) for one lane pass."""
    topology = draw(random_graphs())
    ases = sorted(topology.ases)
    shared = draw(st.sampled_from(ases))
    lanes = []
    for _ in range(draw(st.integers(1, 12))):
        origin = shared if draw(st.booleans()) else draw(
            st.sampled_from(ases)
        )
        victim = draw(st.sampled_from(ases))
        prepend = draw(st.integers(0, 2))
        forged = draw(st.booleans()) and victim != origin
        path = (origin,) * (1 + prepend) + ((victim,) if forged else ())
        validators = draw(st.one_of(
            st.none(), st.frozensets(st.sampled_from(ases)),
        ))
        lanes.append((Seed(origin, path), draw(st.booleans()), validators))
    return topology, lanes


class TestLanePass:
    @settings(max_examples=300, deadline=None)
    @given(lane_sets())
    def test_every_lane_equals_reach(self, case):
        topology, specs = case
        compiled = topology.compiled()
        n = len(compiled)
        width = n.bit_length()
        lanes, expected = [], []
        for seed, invalid, validators in specs:
            mask = compiled.validation_mask(validators) if invalid else None
            adopted, touched = bytearray(n), []
            _reach(compiled, seed, mask, adopted, touched)
            origin = compiled.index_of[seed.asn]
            if mask is not None and mask[origin]:
                assert not touched  # an empty lane takes no field
                continue
            lanes.append((origin, seed.path, mask))
            expected.append((bytes(adopted), len(touched)))
        reached = _lane_pass(compiled, lanes, width)
        counts = sum(reached)
        for j, (adopted, count) in enumerate(expected):
            shift = j * width
            assert bytes(v >> shift & 1 for v in reached) == adopted
            assert counts >> shift & ((1 << width) - 1) == count


    def test_customer_provider_cycle(self):
        """A provider cycle needs more than one visit per AS: every
        origin around it still reaches what _reach reaches."""
        ring = [100, 101, 102, 103, 104]
        edges = [
            (a, b, "c2p") for a, b in zip(ring, ring[1:] + ring[:1])
        ] + [(105, 102, "c2p"), (106, 100, "p2p")]
        compiled = AsTopology.from_edges(edges).compiled()
        n = len(compiled)
        width = n.bit_length()
        seeds = [Seed.origin(asn) for asn in sorted(compiled.asns)]
        lanes = [(compiled.index_of[s.asn], s.path, None) for s in seeds]
        reached = _lane_pass(compiled, lanes, width)
        for j, seed in enumerate(seeds):
            adopted, touched = bytearray(n), []
            _reach(compiled, seed, None, adopted, touched)
            assert bytes(v >> j * width & 1 for v in reached) == adopted


def _batch_cases(draw, topology):
    """Attack cases over several trials: per trial a victim, an
    attacker pool and a validator set."""
    ases = sorted(topology.ases)
    vrp_choices = st.sampled_from(["none", "minimal", "loose", "origin"])
    cases = []
    for _ in range(draw(st.integers(1, 4))):
        victim = draw(st.sampled_from(ases))
        validators = draw(st.one_of(
            st.none(), st.frozensets(st.sampled_from(ases)),
        ))
        for _ in range(draw(st.integers(1, 4))):
            attackers = draw(st.lists(
                st.sampled_from(ases), min_size=1, max_size=2, unique=True,
            ))
            prepend = draw(st.integers(0, 1))
            forged = draw(st.booleans())
            seeds = tuple(
                Seed(a, (a,) * (1 + prepend) + ((victim,) if forged else ()))
                for a in attackers
            )
            vrps = {
                "none": None,
                "minimal": [Vrp(PFX, 16, victim)],
                "loose": [Vrp(PFX, 24, victim)],
                "origin": [Vrp(PFX, 24, attackers[0])],
            }[draw(vrp_choices)]
            cases.append(AttackCase(
                victim, PFX, draw(st.sampled_from([PFX, SUB])), seeds,
                vrp_index=None if vrps is None else VrpIndex(vrps),
                validating_ases=validators,
            ))
    return cases


def _per_call(topology, cases, rng=None):
    outcomes = []
    for case in cases:
        try:
            outcomes.append(evaluate_attack_seeds_array(
                topology, case.victim, case.victim_prefix,
                case.attack_prefix, case.attacker_seeds,
                vrp_index=case.vrp_index,
                validating_ases=case.validating_ases, rng=rng,
            ))
        except Exception as exc:  # the batch must fail the same way
            return outcomes, exc
    return outcomes, None


class TestBatchEntryPoint:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 2**32))
    def test_batch_equals_per_call_on_random_graphs(self, data, rng_seed):
        topology = data.draw(random_graphs())
        cases = _batch_cases(data.draw, topology)
        reference = random.Random(rng_seed)
        expected, error = _per_call(topology, cases, reference)
        rng = random.Random(rng_seed)
        if error is not None:
            with pytest.raises(type(error)) as caught:
                evaluate_attack_seeds_array_batch(topology, cases, rng=rng)
            assert str(caught.value) == str(error)
            return
        assert evaluate_attack_seeds_array_batch(
            topology, cases, rng=rng
        ) == expected
        assert rng.getstate() == reference.getstate()

    def test_seed_absent_from_topology(self):
        topology = _synthetic(40, 0)
        ases = sorted(topology.ases)
        victim, attacker = ases[0], ases[-1]
        for seed in (Seed.origin(attacker + 1000), Seed.origin(attacker)):
            for case_victim in (victim, victim + 1000):
                if seed.asn in topology.ases and case_victim == victim:
                    continue
                case = AttackCase(case_victim, PFX, SUB, (seed,))
                with pytest.raises(SimulationError) as per_call:
                    evaluate_attack_seeds_array(
                        topology, case_victim, PFX, SUB, [seed]
                    )
                with pytest.raises(SimulationError) as batched:
                    evaluate_attack_seeds_array_batch(topology, [case])
                assert str(batched.value) == str(per_call.value)

    def test_attack_lane_shared_across_victims(self):
        """One attacker against many victims: the attack lane opens
        once, before most of the covers it is paired with."""
        topology = _synthetic(70, 1)
        ases = sorted(topology.ases)
        attacker = ases[-1]
        cases = [
            AttackCase(victim, PFX, SUB, (Seed.origin(attacker),))
            for victim in ases[:20]
        ]
        assert evaluate_attack_seeds_array_batch(topology, cases) == (
            _per_call(topology, cases)[0]
        )

    def test_passes_split_at_the_lane_cap(self):
        """More lanes than one pass holds: several passes, same
        answers, and many cases sharing one origin share its lane."""
        topology = _synthetic(70, 1)
        ases = sorted(topology.ases)
        rng = random.Random(3)
        cases = []
        for _ in range(_LANE_CAP + 10):
            victim, attacker = rng.sample(ases, 2)
            for vrps in ([Vrp(PFX, 24, victim)], [Vrp(PFX, 16, victim)]):
                cases.append(AttackCase(
                    victim, PFX, SUB, (Seed.forged_origin(attacker, victim),),
                    vrp_index=VrpIndex(vrps),
                    validating_ases=frozenset(rng.sample(ases, 30)),
                ))
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        batched = evaluate_attack_seeds_array_batch(
            topology, cases, workspace=workspace
        )
        assert batched == _per_call(topology, cases)[0]
        assert registry.snapshot()["fastprop.sweeps"] > 1


# ----------------------------------------------------------------------
# Chunked evaluate_trials, at chunk boundaries and through the runner
# ----------------------------------------------------------------------

_CHUNK_CELLS = (
    ScenarioCell("forged-origin-subprefix", MinimalRoa()),
    ScenarioCell(AttackConfig("forged-origin-subprefix", 1, 2),
                 MaxLengthLooseRoa()),
    ScenarioCell("subprefix-hijack", MinimalRoa()),
    ScenarioCell(AttackConfig("subprefix-hijack", 2, 0), NoRoa()),
    ScenarioCell("prefix-hijack", MinimalRoa()),
    ScenarioCell(AttackConfig("forged-origin", 2, 0), MaxLengthLooseRoa()),
)


def _chunk_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        cells=_CHUNK_CELLS,
        trials=evaluate_module._CHUNK + 2,
        seed=11,
        fractions=(0.5, None),
        engine="array",
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def _one_by_one(
    topology, spec, trials, *, workspace=None, observe=None,
    first_chunk=None,
):
    """evaluate_trials as a plain map of workspace-free evaluate_trial."""
    for trial in trials:
        records = evaluate_trial(topology, spec, trial)
        if observe is not None:
            observe(trial, 0.0)
        yield from records


class TestChunkedEvaluation:
    @pytest.mark.parametrize("count", [
        1,
        evaluate_module._CHUNK - 1,
        evaluate_module._CHUNK,
        evaluate_module._CHUNK + 1,
        evaluate_module._CHUNK + 2,
    ])
    @pytest.mark.parametrize("first_chunk", [None, 1])
    def test_chunk_boundaries(self, count, first_chunk):
        topology = _synthetic(70, 2)
        spec = _chunk_spec()
        trials = materialize_trials(spec, topology)[:count]
        assert list(evaluate_trials(
            topology, spec, trials, first_chunk=first_chunk
        )) == list(_one_by_one(topology, spec, trials))

    def test_streaming_reader_gets_a_one_trial_first_chunk(
        self, monkeypatch
    ):
        """``iter_records`` pulls one trial before its first record;
        ``run`` pulls a whole chunk, since it drains the stream."""
        import repro.exper.runner as runner_module

        topology = _synthetic(70, 2)
        spec = _chunk_spec()
        seen = []
        real = runner_module.evaluate_trials

        def spy(*args, **kwargs):
            seen.append(kwargs.get("first_chunk"))
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "evaluate_trials", spy)
        streamed = list(ExperimentRunner(topology, spec).iter_records())
        result = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=100
        )
        assert seen == [1, None]
        assert result == aggregate_records(
            spec, streamed, bootstrap_resamples=100
        )

    def test_a_bad_trial_mid_chunk_fails_like_one_by_one(self):
        """Trials before the bad one still yield their records; then
        the same error."""
        topology = _synthetic(70, 2)
        spec = _chunk_spec()
        trials = materialize_trials(spec, topology)[:6]
        trials[4] = dataclasses.replace(trials[4], victim=10**9)

        def drain(stream):
            records = []
            with pytest.raises(SimulationError) as caught:
                for record in stream:
                    records.append(record)
            return records, str(caught.value)

        chunked = drain(evaluate_trials(topology, spec, trials))
        assert chunked == drain(_one_by_one(topology, spec, trials))
        assert len(chunked[0]) == 4 * len(spec.cells)

    @pytest.mark.parametrize("stopping", ["none", "ci"])
    def test_every_executor_and_resume_match_one_by_one(
        self, tmp_path, monkeypatch, stopping
    ):
        import repro.exper.runner as runner_module

        topology = _synthetic(70, 2)
        spec = _chunk_spec(
            stopping=stopping, stop_ci_width=0.5,
            stop_min_trials=4, stop_check_every=2,
        )

        def recorded(name, **kwargs):
            path = tmp_path / f"{name}.jsonl"
            sink = JsonlSink(path)
            try:
                result = ExperimentRunner(
                    topology, spec, sink=sink, **kwargs
                ).run(bootstrap_resamples=100)
            finally:
                sink.close()
            return result, path.read_bytes()

        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "evaluate_trials", _one_by_one)
            expected = recorded("reference")
        if stopping == "ci":
            assert any(c < spec.trials for c in expected[0].trial_counts)
        assert recorded("serial") == expected
        # The pool emits records in completion order: same records,
        # same aggregate, file order aside.
        result, data = recorded("process", executor="process", workers=2)
        assert result == expected[0]
        assert sorted(data.splitlines()) == sorted(expected[1].splitlines())
        assert recorded("sharded", executor="sharded", shards=2) == (
            expected
        )

        cut = tmp_path / "cut.jsonl"
        lines = expected[1].splitlines(keepends=True)
        cut.write_bytes(b"".join(lines[: len(lines) // 2]))
        sink = JsonlSink(cut)
        try:
            resumed = ExperimentRunner(
                topology, spec, sink=sink, resume_from=sink
            ).run(bootstrap_resamples=100)
        finally:
            sink.close()
        # A cut mid-trial leaves its partial block in the file; the
        # read path drops it (see read_run), so compare what it reads.
        assert resumed == expected[0]
        assert read_run(cut) == read_run(tmp_path / "reference.jsonl")
