"""Demand graphs, acyclic-subset enumeration, and exact LP outer bounds."""

import dataclasses
import hashlib
import itertools
import math
import runpy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from timdof import demand_graph, schemes, serialize, topology
from timdof.errors import (
    InvalidAssignmentError,
    InvalidParameterError,
    ResourceLimitError,
    UnsupportedAssignmentError,
)

from oracles import (
    best_assignment_bound_by_product,
    demand_edges,
    demand_graph_from_edges,
    digraph_is_acyclic,
)

F = Fraction


def _graph(t, carriers):
    return demand_graph.build_demand_graph(t, schemes.singleton_assignment(carriers))


@st.composite
def random_demand_graphs(draw, max_k=6):
    """A hand-built demand graph and its edge set."""
    K = draw(st.integers(1, max_k))
    pool = [(u, v) for u in range(1, K + 1) for v in range(1, K + 1) if u != v]
    edges = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)) if pool else []
    return demand_graph_from_edges(K, edges), frozenset(edges)


@st.composite
def random_topologies_and_carriers(draw, max_k=9):
    """A generated or random explicit topology and one carrier per message
    among the transmitters its receiver hears."""
    K = draw(st.integers(1, max_k))
    if draw(st.booleans()):
        t = topology.make_locally_connected(
            K, draw(st.integers(0, K - 1)), draw(st.sampled_from(topology.GENERATED_MODES)))
    else:
        pool = [(i, j) for i in range(1, K + 1) for j in range(1, K + 1) if i != j]
        extra = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
        t = topology.explicit_topology(K, [(i, i) for i in range(1, K + 1)] + extra)
    carriers = [draw(st.sampled_from(topology.transmitters_heard_by(t, i)))
                for i in range(1, K + 1)]
    return t, carriers


def _with_edge(t, receiver, transmitter):
    # the same topology with one more (receiver, transmitter) link
    masks = list(t.rx_masks)
    masks[receiver - 1] |= 1 << (transmitter - 1)
    return dataclasses.replace(t, rx_masks=tuple(masks))


class TestBuildDemandGraph:
    def test_direct_assignment_on_cyclic_ring(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        g = _graph(t, [1, 2, 3, 4])
        # receiver u hears carriers u-2..u, so the only demand edge is u -> u+1
        ring = demand_graph_from_edges(4, {(1, 2), (2, 3), (3, 4), (4, 1)})
        assert g.nonsource_masks == ring.nonsource_masks

    @settings(max_examples=200, deadline=None)
    @given(random_topologies_and_carriers())
    def test_masks_match_pairwise_edges(self, instance):
        t, carriers = instance
        g = _graph(t, carriers)
        want = demand_graph_from_edges(t.K, demand_edges(t, carriers))
        assert g.nonsource_masks == want.nonsource_masks

    def test_shared_carrier_messages_never_draw_edges_between_them(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        g = _graph(t, [1, 1, 3, 3])
        for u, v in itertools.permutations(range(1, 5), 2):
            if g.assignment.transmit_sets[u - 1] == g.assignment.transmit_sets[v - 1]:
                assert g.nonsource_masks[v - 1] >> (u - 1) & 1, (u, v)

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
        with pytest.raises(InvalidParameterError, match="hold node 2"):
            demand_graph_from_edges(3, {(2, 2)})

    @pytest.mark.parametrize("masks", [
        (0b111, 0b1010, 0b111),  # node 4 outside 1..3
        (0b111, 0b111, -1),
        (0b111, 0b111),
    ], ids=["outside", "negative", "too-few"])
    def test_malformed_masks_rejected(self, masks):
        with pytest.raises(InvalidParameterError):
            demand_graph.DemandGraph(K=3, nonsource_masks=masks)


class TestAcyclicSubsets:
    @settings(max_examples=80, deadline=None)
    @given(random_demand_graphs(), st.data())
    def test_membership_matches_dfs_oracle(self, graph, data):
        g, edges = graph
        subset = data.draw(st.sets(st.integers(1, g.K), min_size=1))
        want = digraph_is_acyclic(
            subset, [(u, v) for (u, v) in edges if u in subset and v in subset])
        assert demand_graph.is_acyclic_subset(g, subset) == want

    @settings(max_examples=60, deadline=None)
    @given(random_demand_graphs(max_k=5))
    def test_maximal_family_matches_brute_force(self, graph):
        g, edges = graph
        nodes = range(1, g.K + 1)
        acyclic = [frozenset(s)
                   for r in range(1, g.K + 1)
                   for s in itertools.combinations(nodes, r)
                   if digraph_is_acyclic(s, [(u, v) for (u, v) in edges
                                             if u in s and v in s])]
        want = {s for s in acyclic if not any(s < o for o in acyclic)}
        assert set(demand_graph.maximal_acyclic_subsets(g)) == want

    def test_out_of_range_node_rejected(self):
        g = demand_graph_from_edges(3, ())
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
        g = demand_graph_from_edges(3, ())
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
    def test_removing_an_edge_never_increases_the_bound(self, graph):
        g, edges = graph
        base = demand_graph.dof_upper_bound_lp(g).value
        for edge in edges:
            smaller = demand_graph_from_edges(g.K, edges - {edge})
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


def _space(mode, K, L):
    if mode == topology.CYCLIC:
        return (L + 1) ** K
    return math.prod(min(i, L + 1) for i in range(1, K + 1))


def _residual(mode, K, L):
    # the generated instances with no closed form
    return mode == topology.CYCLIC and L % 2 == 1 and K % (L + 2) != 0 and K >= L + 2


# every generated instance with at most 1024 assignments
SMALL_GRID = [(mode, K, L) for mode in topology.GENERATED_MODES
              for K in range(1, 13) for L in range(K) if _space(mode, K, L) <= 1024]


class TestBestAssignmentUpperBound:
    @pytest.mark.parametrize("K,L,want", [(4, 2, 2), (6, 2, 3), (6, 1, 4), (3, 1, 2)])
    def test_exhaustive_values_on_cyclic_multiples(self, K, L, want):
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        bound = demand_graph._enumerated_bound(t)
        assert bound.value == F(want) == F(2 * K, L + 2)
        assert demand_graph.verify_certificate(bound, K)

    @pytest.mark.parametrize("K,L", [(4, 0), (6, 1), (8, 2), (3, 1), (4, 2), (5, 3)])
    def test_certified_route_matches_exhaustive(self, K, L):
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        certified = demand_graph.best_assignment_upper_bound(t)
        exhaustive = demand_graph._enumerated_bound(t)
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

    def test_enumeration_limit_respected(self):
        t = topology.make_locally_connected(8, 3, topology.CYCLIC)  # odd L, 4^8 assignments
        with pytest.raises(ResourceLimitError, match="odd L with L\\+2 not dividing K"):
            demand_graph.best_assignment_upper_bound(t)

    def test_cyclic_gap_instances_exceed_tdma(self):
        # at K not divisible by L+2 the LP bound can exceed the best TDMA value
        t = topology.make_locally_connected(5, 2, topology.CYCLIC)
        bound = demand_graph.best_assignment_upper_bound(t)
        _, _, res = schemes.optimal_tdma(t)
        assert res.sum_dof == F(2) and bound.value == F(5, 2)

    @pytest.mark.parametrize("mode,K,L", SMALL_GRID)
    def test_closed_form_equals_enumeration(self, mode, K, L):
        t = topology.make_locally_connected(K, L, mode)
        bound = demand_graph.best_assignment_upper_bound(t)
        assert bound.value == demand_graph._enumerated_bound(t).value
        assert demand_graph.verify_certificate(bound, K)
        carriers = [next(iter(ts)) for ts in bound.assignment.transmit_sets]
        edges = demand_edges(t, carriers)
        for subset, _ in bound.certificate:
            inside = [(u, v) for (u, v) in edges if u in subset and v in subset]
            assert digraph_is_acyclic(subset, inside), sorted(subset)

    @pytest.mark.parametrize("mode,K,L", [
        (topology.CYCLIC, 8, 2), (topology.CYCLIC, 5, 2), (topology.CYCLIC, 7, 6),
        (topology.TRUNCATED, 11, 1)])
    def test_closed_forms_enumerate_nothing(self, mode, K, L, monkeypatch):
        def refuse(t):
            raise AssertionError("enumerated")
        monkeypatch.setattr(demand_graph, "_enumerated_bound", refuse)
        t = topology.make_locally_connected(K, L, mode)
        _, _, res = schemes.optimal_tdma(t)
        want = F(2 * K, L + 2) if mode == topology.CYCLIC and K >= L + 2 else res.sum_dof
        assert demand_graph.best_assignment_upper_bound(t).value == want

    @pytest.mark.parametrize("K,L", [(K, L) for K in range(1, 8) for L in range(K)
                                     if _residual(topology.CYCLIC, K, L)])
    def test_orbit_reduction_matches_the_plain_product(self, K, L):
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        assert demand_graph._enumerated_bound(t).value == best_assignment_bound_by_product(t)


CERTIFIABLE = [(K, L) for L in range(5) for K in range(L + 2, 49, L + 2) if K >= 2 * L + 2]

# SHA-256 over the value and assignment documents of every CERTIFIABLE
# instance, pinned from the route that solved the candidate's dense LP.
CERTIFIED_GOLDEN = "b9bebee2cbbe98e9d693418222d0c6f2d9f5dc8c18d6c2a71a2c1eff3ca2cb77"

# one-tile rings (K = L+2) and L = 5..8, outside CERTIFIABLE's pinned grid
BEYOND_GOLDEN = [(L + 2, L) for L in range(1, 5)] + [
    (K, L) for L in range(5, 9) for K in (L + 2, 2 * (L + 2))]


def _certified(K, L):
    t = topology.make_locally_connected(K, L, topology.CYCLIC)
    return t, demand_graph.best_assignment_upper_bound(t)


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

    @pytest.mark.parametrize("K,L", CERTIFIABLE + BEYOND_GOLDEN)
    def test_closed_form_agrees_with_the_candidate_lp(self, K, L, monkeypatch):
        t, bound = _certified(K, L)
        g = demand_graph.build_demand_graph(t, bound.assignment)
        monkeypatch.setattr(demand_graph, "DEMAND_LP_K_LIMIT", K)
        lp_value = demand_graph.dof_upper_bound_lp(g).value
        assert bound.value == lp_value == F(2 * K, L + 2)
        carriers = [next(iter(ts)) for ts in bound.assignment.transmit_sets]
        assert tuple(t.tx_masks[c - 1] for c in carriers) == g.nonsource_masks
        edges = demand_edges(t, carriers)
        for subset, _ in bound.certificate:
            inside = [(u, v) for (u, v) in edges if u in subset and v in subset]
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
        wider = _with_edge(t, 5, 1)
        with pytest.raises(RuntimeError, match="primal witness check failed"):
            demand_graph.best_assignment_upper_bound(wider)

    def test_failed_centred_witness_raises(self):
        # transmitter 1, the carrier of message 2, also reaching receiver 4
        # makes {2, 3, 4} acyclic, so weight 1/2 on every message is not
        # feasible; the arcs stay acyclic
        t = topology.make_locally_connected(5, 2, topology.CYCLIC)
        wider = _with_edge(t, 4, 1)
        centred = demand_graph.best_assignment_upper_bound(t).assignment
        g = demand_graph.build_demand_graph(wider, centred)
        assert demand_graph.is_acyclic_subset(g, {2, 3, 4})
        with pytest.raises(RuntimeError, match="primal witness check failed"):
            demand_graph.best_assignment_upper_bound(wider)


class TestTileLemma:
    @pytest.mark.parametrize("L", range(5))
    def test_prefix_and_suffix_groups_are_acyclic(self, L):
        # message v of a tile 0..L+1 rides a carrier at t_v in [v-L, v];
        # the groups t_v <= 0 and t_v >= 1 must each be acyclic under the
        # tile-clipped demand edges, for every offset pattern
        width = L + 2
        for offsets in itertools.product(range(L + 1), repeat=width):
            starts = [v - o for v, o in enumerate(offsets)]
            edges = [(u, v) for v in range(width) for u in range(width)
                     if u != v and not starts[v] <= u <= starts[v] + L]
            prefix = {v for v in range(width) if starts[v] <= 0}
            for group in (prefix, set(range(width)) - prefix):
                assert digraph_is_acyclic(group, edges), (offsets, sorted(group))

    @pytest.mark.parametrize("L", range(5))
    def test_truncated_start_block_is_acyclic(self, L):
        # users 1..r of a truncated chain, r <= L+1, under every assignment
        for r in range(1, L + 2):
            heard = [range(max(1, v - L), v + 1) for v in range(1, r + 1)]
            for carriers in itertools.product(*heard):
                edges = [(u, v) for v in range(1, r + 1) for u in range(1, r + 1)
                         if u != v and not carriers[v - 1] <= u <= carriers[v - 1] + L]
                assert digraph_is_acyclic(range(1, r + 1), edges), (r, carriers)


class TestTightnessOnLocallyConnected:
    def test_search_equals_bound_on_scoped_grid(self):
        # every closed-form instance up to K = 40: the bound meets TDMA on
        # truncated chains, on cyclic L+2 | K and on K = L+1, and sits
        # frac(2K/(L+2)) above it on even-L cyclic networks otherwise
        for mode in topology.GENERATED_MODES:
            for K in range(1, 41):
                for L in range(K):
                    if _residual(mode, K, L):
                        continue
                    t = topology.make_locally_connected(K, L, mode)
                    _, _, res = schemes.optimal_tdma(t)
                    bound = demand_graph.best_assignment_upper_bound(t)
                    windows = F(2 * K, L + 2)
                    if mode == topology.TRUNCATED or K % (L + 2) == 0 or K == L + 1:
                        want = res.sum_dof
                    else:
                        want = res.sum_dof + windows - math.floor(windows)
                    assert bound.value == want, (mode, K, L)

    @pytest.mark.parametrize("k_max,limit,summary", [
        (4, 20000, "16 instances, 0 with a strict bound-vs-TDMA gap"),
        (5, 20000, "22 instances, 1 with a strict bound-vs-TDMA gap "
                   "(1 cyclic with L+2 not dividing K)"),
        (5, 16, "21 instances, 1 with a strict bound-vs-TDMA gap "
                "(1 cyclic with L+2 not dividing K); 1 skipped at a resource limit"),
    ], ids=["no-gap", "one-gap", "skipped"])
    def test_census_summary_counts_the_gaps(self, k_max, limit, summary, tmp_path, capsys,
                                            monkeypatch):
        # at limit 16, cyclic K=5 L=1 (32 assignments, no closed form) is skipped
        monkeypatch.setattr(demand_graph, "ASSIGNMENT_ENUMERATION_LIMIT", limit)
        script = Path(__file__).resolve().parent.parent / "scripts" / "tightness_table.py"
        census = runpy.run_path(str(script))["main"]
        out = tmp_path / "census.csv"
        assert census(["--K-max", str(k_max), "--L-max", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().err == summary + "\n"
        assert len(out.read_text().splitlines()) == int(summary.split()[0]) + 1
