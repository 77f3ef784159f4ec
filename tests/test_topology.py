"""Topology construction, connectivity predicates, and chordality."""

import pytest
from hypothesis import given, settings, strategies as st

from timdof import topology
from timdof.errors import InvalidParameterError, ResourceLimitError

from oracles import has_chordless_cycle_at_least_6


@st.composite
def generated_params(draw, max_k=12):
    K = draw(st.integers(1, max_k))
    L = draw(st.integers(0, K - 1))
    mode = draw(st.sampled_from(topology.GENERATED_MODES))
    return K, L, mode


class TestMakeLocallyConnected:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda K: st.tuples(st.just(K), st.integers(0, K - 1))))
    def test_truncated_matches_closed_form(self, params):
        K, L = params
        t = topology.make_locally_connected(K, L, topology.TRUNCATED)
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                want = j <= i <= min(j + L, K)
                assert t.connected(i, j) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda K: st.tuples(st.just(K), st.integers(0, K - 1))))
    def test_cyclic_matches_closed_form(self, params):
        K, L = params
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                assert t.connected(i, j) == ((i - j) % K <= L)

    @settings(max_examples=40, deadline=None)
    @given(generated_params())
    def test_interior_transmitters_reach_l_plus_1_receivers(self, params):
        K, L, mode = params
        t = topology.make_locally_connected(K, L, mode)
        interior = range(1, K + 1) if mode == topology.CYCLIC else range(1, K - L + 1)
        for j in interior:
            assert len(topology.receivers_heard_by(t, j)) == L + 1

    @settings(max_examples=40, deadline=None)
    @given(generated_params(max_k=10))
    def test_heard_by_relations_are_duals(self, params):
        K, L, mode = params
        t = topology.make_locally_connected(K, L, mode)
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                assert (j in topology.transmitters_heard_by(t, i)) == \
                       (i in topology.receivers_heard_by(t, j))

    def test_l_zero_is_parallel_links_only(self):
        t = topology.make_locally_connected(5, 0, topology.TRUNCATED)
        assert t.edges == frozenset((i, i) for i in range(1, 6))

    def test_l_max_cyclic_is_fully_connected(self):
        t = topology.make_locally_connected(4, 3, topology.CYCLIC)
        assert len(t.edges) == 16

    @pytest.mark.parametrize("K,L", [(3, 3), (3, 4), (1, 1)])
    def test_l_at_least_k_rejected(self, K, L):
        with pytest.raises(InvalidParameterError):
            topology.make_locally_connected(K, L, topology.TRUNCATED)

    @pytest.mark.parametrize("K", [0, -1, 2.0, "4"])
    def test_bad_user_count_rejected(self, K):
        with pytest.raises(InvalidParameterError):
            topology.make_locally_connected(K, 0, topology.TRUNCATED)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParameterError):
            topology.make_locally_connected(4, 1, "ring")

    def test_index_validation_on_queries(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        with pytest.raises(InvalidParameterError):
            t.connected(0, 1)
        with pytest.raises(InvalidParameterError):
            topology.receivers_heard_by(t, 5)
        with pytest.raises(InvalidParameterError):
            topology.transmitters_heard_by(t, -1)


class TestExplicitTopology:
    def test_keeps_given_edges(self):
        given_edges = [(1, 1), (2, 2), (3, 3), (1, 3)]
        t = topology.explicit_topology(3, given_edges)
        assert t.connected(1, 3) and not t.connected(3, 1)
        assert t.rx_masks == (0b101, 0b010, 0b100)
        assert t.tx_masks == (0b001, 0b010, 0b101)
        assert t.edges == frozenset(given_edges)
        assert t.mode == topology.EXPLICIT and t.L is None

    def test_missing_direct_link_rejected(self):
        with pytest.raises(InvalidParameterError):
            topology.explicit_topology(3, [(1, 1), (2, 2), (1, 3)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            topology.explicit_topology(2, [(1, 1), (2, 2), (3, 1)])

    def test_malformed_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            topology.explicit_topology(2, [(1, 1), (2, 2), (1, 2, 3)])


class TestMasks:
    @settings(max_examples=40, deadline=None)
    @given(generated_params(max_k=10))
    def test_masks_agree_with_predicate(self, params):
        K, L, mode = params
        t = topology.make_locally_connected(K, L, mode)
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                assert bool(t.rx_masks[i - 1] >> (j - 1) & 1) == t.connected(i, j)
                assert bool(t.tx_masks[j - 1] >> (i - 1) & 1) == t.connected(i, j)


class TestChordality:
    def test_truncated_grid_is_chordal(self):
        for K in range(1, 13):
            for L in range(0, min(4, K - 1) + 1):
                t = topology.make_locally_connected(K, L, topology.TRUNCATED)
                assert topology.is_chordal_bipartite(t) is True, (K, L)

    def test_six_cycle_is_not_chordal(self):
        t = topology.explicit_topology(3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3)])
        assert topology.is_chordal_bipartite(t) is False

    def test_chord_restores_chordality(self):
        t = topology.explicit_topology(
            3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (1, 3), (2, 3)])
        assert topology.is_chordal_bipartite(t) is True

    def test_cyclic_wraparound_creates_chordless_cycles(self):
        # with L=1 the topology graph is a single chordless 2K-cycle
        for K in (3, 5, 8):
            t = topology.make_locally_connected(K, 1, topology.CYCLIC)
            assert topology.is_chordal_bipartite(t) is False

    def test_complete_bipartite_is_chordal(self):
        t = topology.make_locally_connected(5, 4, topology.CYCLIC)
        assert topology.is_chordal_bipartite(t) is True

    def test_size_limit_enforced(self, monkeypatch):
        t = topology.make_locally_connected(17, 2, topology.TRUNCATED)
        with pytest.raises(ResourceLimitError):
            topology.is_chordal_bipartite(t)
        monkeypatch.setattr(topology, "CHORDALITY_K_LIMIT", 17)
        assert topology.is_chordal_bipartite(t) is True

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_matches_brute_force_on_random_bipartite_graphs(self, K, data):
        pool = [(i, j) for i in range(1, K + 1) for j in range(1, K + 1) if i != j]
        extra = data.draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
        diag = [(i, i) for i in range(1, K + 1)]
        t = topology.explicit_topology(K, diag + extra)
        und = [(i - 1, K + j - 1) for (i, j) in t.edges]
        want = not has_chordless_cycle_at_least_6(2 * K, und)
        assert topology.is_chordal_bipartite(t) is want
