"""Round trips and formatting rules for every serialized document type."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timdof import demand_graph, linear_sim, schemes, serialize, topology
from timdof.errors import InvalidInputError

F = Fraction

EDGE_FLOATS = [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]
EDGE_INTS = [2 ** 63, -(2 ** 64), 10 ** 100]

numbers = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                    st.integers(), st.sampled_from(EDGE_INTS))
# nested lists of numbers, such as rows of [re, im] pairs, and the other leaves
number_arrays = st.recursive(numbers, lambda inner: st.lists(inner, max_size=3), max_leaves=12)
leaves = st.one_of(st.none(), st.booleans(), numbers, st.text(), number_arrays)
json_like = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4),
    st.dictionaries(st.integers(), inner, max_size=3),
    st.dictionaries(st.floats(allow_nan=False), inner, max_size=3),
), max_leaves=30)


def json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestFractionText:
    @pytest.mark.parametrize("value,text", [
        (F(1, 2), "1/2"), (F(4), "4/1"), (F(0), "0/1"), (F(-3, 7), "-3/7")])
    def test_always_renders_p_over_q(self, value, text):
        assert serialize.fraction_str(value) == text
        assert serialize.parse_fraction(text) == value

    def test_integers_accepted_on_parse(self):
        assert serialize.parse_fraction("5") == F(5)

    def test_garbage_rejected(self):
        with pytest.raises(InvalidInputError):
            serialize.parse_fraction("three halves")

    @settings(max_examples=50, deadline=None)
    @given(st.fractions(max_denominator=1000))
    def test_round_trip(self, q):
        assert serialize.parse_fraction(serialize.fraction_str(q)) == q


class TestTopologyDocs:
    def test_generated_round_trip(self):
        t = topology.make_locally_connected(6, 2, topology.CYCLIC)
        doc = serialize.topology_to_dict(t)
        assert doc["schema"] == serialize.TOPOLOGY_SCHEMA
        assert "explicit_edges" not in doc
        assert serialize.topology_from_dict(doc) == t

    def test_explicit_round_trip_keeps_edges(self):
        t = topology.explicit_topology(3, [(1, 1), (2, 2), (3, 3), (1, 3)])
        doc = serialize.topology_to_dict(t)
        assert doc["explicit_edges"] == [[1, 1], [1, 3], [2, 2], [3, 3]]
        assert serialize.topology_from_dict(doc) == t

    def test_wrong_schema_rejected(self):
        with pytest.raises(InvalidInputError):
            serialize.topology_from_dict({"schema": "timdof/schedule/v1", "K": 2})


class TestSchemeArtifacts:
    def test_assignment_round_trip_including_unbounded(self):
        a = linear_sim.full_cooperation_assignment(3)
        doc = serialize.assignment_to_dict(a)
        assert doc["budget"] == "unbounded"
        assert serialize.assignment_from_dict(doc) == a
        b = schemes.singleton_assignment([2, 1, 3])
        assert serialize.assignment_from_dict(serialize.assignment_to_dict(b)) == b

    def test_schedule_round_trip_preserves_exact_fractions(self):
        sched = schemes.TdmaSchedule(K=4, entries=(
            (schemes.ServedSet.from_map({1: 1, 3: 3}), F(2, 3)),
            (schemes.ServedSet.from_map({2: 2}), F(1, 3)),
        ))
        doc = serialize.schedule_to_dict(sched)
        assert doc["entries"][0]["fraction"] == "2/3"
        assert serialize.schedule_from_dict(doc) == sched

    def test_dof_result_round_trip_with_and_without_trials(self):
        plain = schemes.DofResult(sum_dof=F(3, 2), K=4, method=schemes.METHOD_LP_BOUND)
        assert serialize.dof_result_from_dict(serialize.dof_result_to_dict(plain)) == plain
        simmed = schemes.DofResult(
            sum_dof=F(2), K=4, method=schemes.METHOD_LINEAR_SIM, trials=3,
            trial_totals=(4, 4, 4), disagreement_rate=F(0), unstable=False)
        assert serialize.dof_result_from_dict(serialize.dof_result_to_dict(simmed)) == simmed

    def test_dof_bound_round_trip_keeps_certificate(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3, 4])
        bound = demand_graph.dof_upper_bound_lp(demand_graph.build_demand_graph(t, a))
        doc = serialize.dof_bound_to_dict(bound)
        assert doc["value"] == "4/3"
        got = serialize.dof_bound_from_dict(doc)
        assert got == bound
        assert demand_graph.verify_certificate(got, 4)


class TestSimulationArtifacts:
    def test_scheme_round_trip(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(
            t, linear_sim.full_cooperation_assignment(4), 2, 0.8, seed=5)
        got = serialize.scheme_from_dict(serialize.scheme_to_dict(s))
        assert got.n == s.n and got.symbol_counts == s.symbol_counts
        assert set(got.precoders) == set(s.precoders)
        for k in s.precoders:
            assert np.allclose(got.precoders[k], s.precoders[k])

    def test_realization_round_trip_is_exact(self):
        t = topology.make_locally_connected(3, 1, topology.TRUNCATED)
        c = linear_sim.sample_channel(t, 2, linear_sim.CONSTANT, seed=8)
        got = serialize.realization_from_dict(serialize.realization_to_dict(c))
        assert got.coherence == c.coherence
        assert np.array_equal(got.h, c.h)

    def test_report_round_trip(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(
            t, linear_sim.full_cooperation_assignment(4), 2, 1.0, seed=2)
        c = linear_sim.sample_channel(t, 2, seed=3)
        rep = linear_sim.lemma1_check(s, c, (2, 4))
        assert serialize.report_from_dict(serialize.report_to_dict(rep)) == rep


class TestDumps:
    def test_sorted_keys_and_trailing_newline(self):
        text = serialize.dumps({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    @settings(max_examples=300, deadline=None)
    @given(json_like)
    def test_equals_the_json_module(self, doc):
        assert serialize.dumps(doc) == json_text(doc)

    def test_strings_and_edge_numbers(self):
        doc = {"\u00e9\u4e2d\U0001f600": ["\x00\x1f\t\"\\", "caf\u00e9"],
               "floats": EDGE_FLOATS, "ints": EDGE_INTS, "pairs": [[0.5, -0.0], [1e16, 5e-324]],
               "empty": [[], {}, ()], "tuple": (1, (2.5, 3.0))}
        assert serialize.dumps(doc) == json_text(doc)

    @pytest.mark.parametrize("doc", [
        {"a": {1, 2}}, {"a": 1j}, {"a": np.float32(1)}, {"a": [np.int64(1)]},
        {(1, 2): 3}, {1: 2, "a": 3}, {"a": [1.0, b"x"]}],
        ids=["set", "complex", "float32", "int64", "tuple-key", "mixed-keys", "bytes"])
    def test_unsupported_values_raise_what_json_raises(self, doc):
        with pytest.raises(Exception) as want:
            json_text(doc)
        with pytest.raises(want.type):
            serialize.dumps(doc)

    def test_cycles_raise_what_json_raises(self):
        loop = []
        loop.append([loop])
        for doc in (loop, {"a": [[1.0], loop]}):
            with pytest.raises(ValueError, match="Circular reference"):
                json_text(doc)
            with pytest.raises(ValueError, match="Circular reference"):
                serialize.dumps(doc)

    def test_scheme_document_is_plain_and_rendered_as_json_renders_it(self):
        t = topology.make_locally_connected(6, 2, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(6), 3, 0.7, seed=4)
        doc = serialize.scheme_to_dict(s)
        matrix = doc["precoders"][0]["matrix"]
        assert type(matrix) is list and type(matrix[0][0]) is list
        assert {type(x) for row in matrix for pair in row for x in pair} == {float}
        assert serialize.dumps(doc) == json_text(doc)

    def test_loads_inverts_dumps(self):
        doc = serialize.topology_to_dict(topology.make_locally_connected(3, 1, topology.CYCLIC))
        assert serialize.loads(serialize.dumps(doc)) == doc
