"""Draw-free single-seed propagation: the reachability pass.

A single-seed propagation's adopted set does not depend on tie-break
draws, so attack evaluation answers it with
:func:`repro.bgp.fastprop._reach` — three breadth-first passes, no
RNG.  These properties pin that shortcut against the drawing sweep
and the object engine on random topologies, seed paths, RFC 6811
verdicts and validator sets, and pin invariants 3 (object/array
equivalence) and 4 (workspace equivalence) on random multi-cell
specs that mix single-seed and multi-seed cells.
"""

from __future__ import annotations

import dataclasses
import functools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bgp import AsTopology, Seed, VrpIndex, propagate_prefix
from repro.bgp.attacks import evaluate_attack_seeds
from repro.bgp.fastprop import (
    PropagationWorkspace,
    _propagate,
    _single_seed_outcome,
)
from repro.data.asgraph import TopologyProfile, generate_topology
from repro.exper import (
    AttackConfig,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    ScenarioCell,
    evaluate_trial,
    evaluate_trials,
    materialize_trials,
)
from repro.netbase import Prefix
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
