"""Demand graphs, acyclic-subset enumeration, and exact LP outer bounds."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from timdof import demand_graph, schemes, serialize, topology
from timdof.errors import (
    InvalidAssignmentError,
    InvalidParameterError,
    ResourceLimitError,
    UnsupportedAssignmentError,
)

from oracles import digraph_is_acyclic

F = Fraction


def _graph(t, carriers):
    return demand_graph.build_demand_graph(t, schemes.singleton_assignment(carriers))


@st.composite
def random_demand_graphs(draw, max_k=6):
    K = draw(st.integers(1, max_k))
    pool = [(u, v) for u in range(1, K + 1) for v in range(1, K + 1) if u != v]
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)) if pool else []
    return demand_graph.DemandGraph(K=K, edges=frozenset(edges))


class TestBuildDemandGraph:
    def test_direct_assignment_on_cyclic_ring(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        g = _graph(t, [1, 2, 3, 4])
        # receiver u hears carriers u-2..u, so the only demand edge is u -> u+1
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 1)})

    def test_shared_carrier_messages_never_draw_edges_between_them(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        g = _graph(t, [1, 1, 3, 3])
        for u, v in g.edges:
            assert g.assignment.transmit_sets[u - 1] != g.assignment.transmit_sets[v - 1]

    def test_multi_transmitter_assignment_unsupported(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = schemes.MessageAssignment(
            transmit_sets=(frozenset([1, 2]), frozenset([2]), frozenset([3])), budget=2)
        with pytest.raises(UnsupportedAssignmentError):
            demand_graph.build_demand_graph(t, a)

    def test_unheard_carrier_rejected(self):
        t = topology.make_locally_connected(4, 1, topology.TRUNCATED)
        with pytest.raises(InvalidAssignmentError):
            _graph(t, [1, 2, 3, 1])  # receiver 4 does not hear transmitter 1

    def test_self_loops_rejected(self):
        with pytest.raises(InvalidParameterError):
            demand_graph.DemandGraph(K=3, edges=frozenset({(2, 2)}))


class TestAcyclicSubsets:
    @settings(max_examples=80, deadline=None)
    @given(random_demand_graphs(), st.data())
    def test_membership_matches_dfs_oracle(self, g, data):
        subset = data.draw(st.sets(st.integers(1, g.K), min_size=1))
        want = digraph_is_acyclic(
            subset, [(u, v) for (u, v) in g.edges if u in subset and v in subset])
        assert demand_graph.is_acyclic_subset(g, subset) == want

    @settings(max_examples=60, deadline=None)
    @given(random_demand_graphs(max_k=5))
    def test_maximal_family_matches_brute_force(self, g):
        nodes = range(1, g.K + 1)
        acyclic = [frozenset(s)
                   for r in range(1, g.K + 1)
                   for s in itertools.combinations(nodes, r)
                   if digraph_is_acyclic(s, [(u, v) for (u, v) in g.edges
                                             if u in s and v in s])]
        want = {s for s in acyclic if not any(s < o for o in acyclic)}
        assert set(demand_graph.maximal_acyclic_subsets(g)) == want

    def test_out_of_range_node_rejected(self):
        g = demand_graph.DemandGraph(K=3, edges=frozenset())
        with pytest.raises(InvalidParameterError):
            demand_graph.is_acyclic_subset(g, {0, 1})


class TestDofUpperBoundLp:
    def test_cyclic_ring_value(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        bound = demand_graph.dof_upper_bound_lp(_graph(t, [1, 2, 3, 4]))
        assert bound.value == F(4, 3)

    def test_truncated_chain_value(self):
        t = topology.make_locally_connected(3, 1, topology.TRUNCATED)
        bound = demand_graph.dof_upper_bound_lp(_graph(t, [1, 2, 3]))
        assert bound.value == F(2)

    def test_cyclic_chain_value(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        bound = demand_graph.dof_upper_bound_lp(_graph(t, [1, 2, 3]))
        assert bound.value == F(3, 2)

    def test_edgeless_graph_is_unconstrained_beyond_singletons(self):
        g = demand_graph.DemandGraph(K=3, edges=frozenset())
        assert demand_graph.dof_upper_bound_lp(g).value == F(1)

    def test_certificates_always_verify(self):
        for mode in topology.GENERATED_MODES:
            for K, L in [(3, 1), (4, 2), (5, 2), (6, 1)]:
                t = topology.make_locally_connected(K, L, mode)
                carriers = [topology.transmitters_heard_by(t, i)[0] for i in range(1, K + 1)]
                bound = demand_graph.dof_upper_bound_lp(_graph(t, carriers))
                assert demand_graph.verify_certificate(bound, K)

    def test_tampered_certificate_fails(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        bound = demand_graph.dof_upper_bound_lp(_graph(t, [1, 2, 3, 4]))
        worse = demand_graph.DofBound(value=bound.value + 1,
                                      certificate=bound.certificate,
                                      assignment=bound.assignment)
        assert not demand_graph.verify_certificate(worse, 4)

    def test_size_limit_enforced(self):
        t = topology.make_locally_connected(13, 1, topology.CYCLIC)
        g = _graph(t, list(range(1, 14)))
        with pytest.raises(ResourceLimitError):
            demand_graph.dof_upper_bound_lp(g)

    @settings(max_examples=40, deadline=None)
    @given(random_demand_graphs(max_k=5))
    def test_removing_an_edge_never_increases_the_bound(self, g):
        base = demand_graph.dof_upper_bound_lp(g).value
        for edge in g.edges:
            smaller = demand_graph.DemandGraph(K=g.K, edges=g.edges - {edge})
            assert demand_graph.dof_upper_bound_lp(smaller).value <= base


class TestWeakDuality:
    def test_schedules_never_beat_the_bound_for_any_assignment(self):
        for mode in topology.GENERATED_MODES:
            for K, L in [(4, 1), (4, 2), (5, 2)]:
                t = topology.make_locally_connected(K, L, mode)
                heard = [topology.transmitters_heard_by(t, i) for i in range(1, K + 1)]
                for carriers in itertools.product(*heard):
                    a = schemes.singleton_assignment(carriers)
                    _, res = schemes.best_sum_schedule(t, a)
                    bound = demand_graph.dof_upper_bound_lp(
                        demand_graph.build_demand_graph(t, a))
                    assert res.sum_dof <= bound.value, (mode, K, L, carriers)


class TestBestAssignmentUpperBound:
    @pytest.mark.parametrize("K,L,want", [(4, 2, 2), (6, 2, 3), (6, 1, 4), (3, 1, 2)])
    def test_exhaustive_values_on_cyclic_multiples(self, K, L, want):
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        bound = demand_graph.best_assignment_upper_bound(t, method="exhaustive")
        assert bound.value == F(want) == F(2 * K, L + 2)
        assert demand_graph.verify_certificate(bound, K)

    @pytest.mark.parametrize("K,L", [(4, 0), (6, 1), (8, 2)])
    def test_certified_route_matches_exhaustive(self, K, L):
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        certified = demand_graph.best_assignment_upper_bound(t, method="certified")
        exhaustive = demand_graph.best_assignment_upper_bound(t, method="exhaustive")
        assert certified.value == exhaustive.value == F(2 * K, L + 2)
        assert demand_graph.verify_certificate(certified, K)

    def test_certified_route_reaches_past_enumeration(self):
        t = topology.make_locally_connected(12, 4, topology.CYCLIC)  # 5^12 assignments
        bound = demand_graph.best_assignment_upper_bound(t)
        assert bound.value == F(4)
        assert demand_graph.verify_certificate(bound, 12)

    def test_certified_route_reaches_past_lp_k_limit(self):
        # the certified path solves no demand LP, so the LP's K cap does not apply
        t = topology.make_locally_connected(24, 2, topology.CYCLIC)
        bound = demand_graph.best_assignment_upper_bound(t)
        assert bound.value == F(12)
        assert demand_graph.verify_certificate(bound, 24)

    def test_certified_requires_the_tile_structure(self):
        t = topology.make_locally_connected(7, 2, topology.CYCLIC)  # 7 not divisible by 4
        with pytest.raises(InvalidParameterError):
            demand_graph.best_assignment_upper_bound(t, method="certified")

    def test_enumeration_limit_respected(self):
        t = topology.make_locally_connected(9, 2, topology.CYCLIC)  # 3^9 > 10000, 9 % 4 != 0
        with pytest.raises(ResourceLimitError):
            demand_graph.best_assignment_upper_bound(t, enumeration_limit=10000)

    def test_unknown_method_rejected(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        with pytest.raises(InvalidParameterError):
            demand_graph.best_assignment_upper_bound(t, method="greedy")

    def test_cyclic_gap_instances_exceed_tdma(self):
        # at K not divisible by L+2 the LP bound can exceed the best TDMA value
        t = topology.make_locally_connected(5, 2, topology.CYCLIC)
        bound = demand_graph.best_assignment_upper_bound(t)
        _, _, res = schemes.optimal_tdma(t)
        assert res.sum_dof == F(2) and bound.value == F(5, 2)


CERTIFIABLE = [(K, L) for L in range(5) for K in range(L + 2, 49, L + 2) if K >= 2 * L + 2]

# SHA-256 over the value and assignment documents of every CERTIFIABLE
# instance, pinned from the route that solved the candidate's dense LP.
CERTIFIED_GOLDEN = "b9bebee2cbbe98e9d693418222d0c6f2d9f5dc8c18d6c2a71a2c1eff3ca2cb77"


def _certified(K, L):
    t = topology.make_locally_connected(K, L, topology.CYCLIC)
    return t, demand_graph.best_assignment_upper_bound(t, method="certified")


class TestCertifiedClosedForm:
    def test_values_and_assignments_match_the_lp_route_bytes(self):
        h = hashlib.sha256()
        for K, L in CERTIFIABLE:
            _, bound = _certified(K, L)
            h.update(serialize.dumps({
                "K": K, "L": L, "value": serialize.fraction_str(bound.value),
                "assignment": serialize.assignment_to_dict(bound.assignment)}).encode())
        assert len(CERTIFIABLE) == 65
        assert h.hexdigest() == CERTIFIED_GOLDEN

    @pytest.mark.parametrize("K,L", CERTIFIABLE)
    def test_closed_form_agrees_with_the_candidate_lp(self, K, L):
        t, bound = _certified(K, L)
        g = demand_graph.build_demand_graph(t, bound.assignment)
        lp_value = demand_graph.dof_upper_bound_lp(g, k_limit=K).value
        assert bound.value == lp_value == F(2 * K, L + 2)
        carriers = [next(iter(ts)) for ts in bound.assignment.transmit_sets]
        assert tuple(t.tx_masks[c - 1] for c in carriers) == g.nonsource_masks
        for subset, _ in bound.certificate:
            inside = [(u, v) for (u, v) in g.edges if u in subset and v in subset]
            assert digraph_is_acyclic(subset, inside), sorted(subset)
        windows = []
        for s in range(1, K + 1, L + 2):
            windows += [(frozenset(range(s, s + L + 1)), F(1)),
                        (frozenset(range(s + 1, s + L + 2)), F(1))]
        assert bound.certificate == tuple(windows)

    @pytest.mark.parametrize("name,check", [
        ("verify_certificate", "certificate check failed"),
        ("_mask_acyclic", "acyclicity check failed"),
    ])
    def test_failed_check_raises(self, name, check, monkeypatch):
        monkeypatch.setattr(demand_graph, name, lambda *args: False)
        with pytest.raises(RuntimeError, match=check):
            _certified(12, 2)

    def test_failed_primal_witness_raises(self):
        # transmitter 1 also reaching receiver 5 breaks the 2-cycle between
        # tile-boundary messages 1 and 5; the windows stay acyclic
        t = topology.make_locally_connected(8, 2, topology.CYCLIC)
        wider = topology.Topology(K=8, L=2, mode=topology.CYCLIC, edges=t.edges | {(5, 1)})
        with pytest.raises(RuntimeError, match="primal witness check failed"):
            demand_graph._certified_cyclic_bound(wider)

    def test_failed_tile_lemma_raises(self, monkeypatch):
        monkeypatch.setattr(demand_graph, "_tile_patterns_bounded", lambda L: False)
        with pytest.raises(RuntimeError, match="tile bound failed"):
            _certified(12, 4)


class TestTightnessOnLocallyConnected:
    def test_search_equals_bound_on_scoped_grid(self):
        # truncated: every K; cyclic: K divisible by L+2 (asymptotic stand-in)
        for mode in topology.GENERATED_MODES:
            for K in range(2, 9):
                for L in range(0, min(3, K - 1) + 1):
                    if mode == topology.CYCLIC and K % (L + 2) != 0:
                        continue
                    t = topology.make_locally_connected(K, L, mode)
                    _, _, res = schemes.optimal_tdma(t)
                    bound = demand_graph.best_assignment_upper_bound(t)
                    assert res.sum_dof == bound.value, (mode, K, L)
