"""Assignments, served sets, fractional TDMA schedules, and the exact search."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import schedulable_pairwise, tdma_optimum_by_subsets
from timdof import schemes, topology
from timdof.errors import (
    InvalidAssignmentError,
    InvalidParameterError,
    InvalidScheduleError,
    ResourceLimitError,
)

F = Fraction


@st.composite
def generated_topologies(draw, max_k=8):
    K = draw(st.integers(1, max_k))
    L = draw(st.integers(0, K - 1))
    mode = draw(st.sampled_from(topology.GENERATED_MODES))
    return topology.make_locally_connected(K, L, mode)


@st.composite
def topologies_with_assignment(draw, max_k=8):
    t = draw(generated_topologies(max_k))
    carriers = [draw(st.sampled_from(topology.transmitters_heard_by(t, i)))
                for i in range(1, t.K + 1)]
    return t, schemes.singleton_assignment(carriers)


@st.composite
def any_topologies(draw, max_k=7):
    if draw(st.booleans()):
        return draw(generated_topologies(max_k))
    K = draw(st.integers(1, max_k))
    pairs = st.tuples(st.integers(1, K), st.integers(1, K))
    extra = draw(st.lists(pairs, max_size=2 * K))
    return topology.explicit_topology(K, [(i, i) for i in range(1, K + 1)] + extra)


@st.composite
def topologies_with_served_set(draw, max_k=7):
    """A topology and any served set over it, servable or not; indices may reach K+1."""
    t = draw(any_topologies(max_k))
    receivers = draw(st.lists(st.integers(1, t.K + 1), unique=True, max_size=t.K + 1))
    servers = {}
    for i in receivers:
        # mostly heard transmitters, so that cross interference decides
        heard = topology.transmitters_heard_by(t, i) if i <= t.K else ()
        anywhere = st.integers(1, t.K + 1)
        servers[i] = draw(st.one_of(st.sampled_from(heard), anywhere) if heard else anywhere)
    return t, schemes.ServedSet.from_map(servers)


class TestMessageAssignment:
    def test_singleton_round_trip(self):
        a = schemes.singleton_assignment([2, 1, 3])
        assert a.K == 3 and a.budget == 1
        assert a.transmit_sets == (frozenset([2]), frozenset([1]), frozenset([3]))
        assert a.encoding() == ((2,), (1,), (3,))

    def test_empty_transmit_set_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            schemes.MessageAssignment(transmit_sets=(frozenset([1]), frozenset()), budget=1)

    def test_budget_enforced(self):
        sets = (frozenset([1, 2]), frozenset([2]))
        with pytest.raises(InvalidAssignmentError):
            schemes.MessageAssignment(transmit_sets=sets, budget=1)
        a = schemes.MessageAssignment(transmit_sets=sets, budget=2)
        assert a.K == 2

    def test_unbounded_budget(self):
        full = frozenset([1, 2, 3])
        a = schemes.MessageAssignment(transmit_sets=(full, full, full), budget=None)
        assert a.budget is None

    def test_out_of_range_transmitter_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            schemes.singleton_assignment([1, 4], budget=1)

    def test_bad_budget_rejected(self):
        with pytest.raises(InvalidAssignmentError):
            schemes.MessageAssignment(transmit_sets=(frozenset([1]),), budget=0)


class TestServedSet:
    def test_from_map_sorts_by_receiver(self):
        s = schemes.ServedSet.from_map({3: 2, 1: 1})
        assert s.servers == ((1, 1), (3, 2))
        assert s.served == frozenset([1, 3])
        assert s.server_of == {1: 1, 3: 2}
        assert len(s) == 2

    def test_duplicate_receiver_rejected(self):
        with pytest.raises(InvalidScheduleError):
            schemes.ServedSet(servers=((1, 1), (1, 2)))

    def test_unsorted_servers_rejected(self):
        with pytest.raises(InvalidScheduleError):
            schemes.ServedSet(servers=((2, 2), (1, 1)))


class TestTdmaSchedule:
    def test_dof_vector_weights_served_fractions(self):
        sched = schemes.TdmaSchedule(K=3, entries=(
            (schemes.ServedSet.from_map({1: 1, 3: 3}), F(1, 2)),
            (schemes.ServedSet.from_map({2: 2}), F(1, 4)),
        ))
        assert sched.dof_vector() == (F(1, 2), F(1, 4), F(1, 2))

    def test_fraction_bounds_enforced(self):
        one = schemes.ServedSet.from_map({1: 1})
        with pytest.raises(InvalidScheduleError):
            schemes.TdmaSchedule(K=1, entries=((one, F(0)),))
        with pytest.raises(InvalidScheduleError):
            schemes.TdmaSchedule(K=1, entries=((one, F(3, 2)),))
        with pytest.raises(InvalidScheduleError):
            schemes.TdmaSchedule(K=1, entries=((one, F(2, 3)), (one, F(1, 2))))

    def test_out_of_range_server_rejected(self):
        with pytest.raises(InvalidScheduleError):
            schemes.TdmaSchedule(K=2, entries=(
                (schemes.ServedSet.from_map({3: 1}), F(1, 2)),))


class TestDofResult:
    def test_per_user(self):
        r = schemes.DofResult(sum_dof=F(3), K=6, method=schemes.METHOD_TDMA_SEARCH)
        assert r.per_user == F(1, 2)

    def test_range_enforced(self):
        with pytest.raises(InvalidParameterError):
            schemes.DofResult(sum_dof=F(7), K=6, method=schemes.METHOD_TDMA_SEARCH)


class TestIsSchedulable:
    def setup_method(self):
        self.t = topology.make_locally_connected(6, 2, topology.CYCLIC)

    def test_interference_free_set_accepted(self):
        s = schemes.ServedSet.from_map({1: 6, 4: 3})
        # transmitter 6 covers {6,1,2}, transmitter 3 covers {3,4,5}: disjoint
        assert schemes.is_schedulable(self.t, s)

    def test_cross_interference_rejected(self):
        s = schemes.ServedSet.from_map({1: 1, 2: 2})
        # transmitter 1 covers receivers {1,2,3}: hits served receiver 2
        assert not schemes.is_schedulable(self.t, s)

    def test_unconnected_server_rejected(self):
        s = schemes.ServedSet.from_map({1: 4})
        assert not schemes.is_schedulable(self.t, s)

    def test_shared_transmitter_rejected(self):
        t = topology.make_locally_connected(4, 0, topology.TRUNCATED)
        # L=0: no cross interference possible, but one transmitter, two messages
        s = schemes.ServedSet(servers=((1, 1), (2, 1)))
        assert not schemes.is_schedulable(t, s)

    def test_out_of_range_index_raises(self):
        with pytest.raises(InvalidParameterError):
            schemes.is_schedulable(self.t, schemes.ServedSet.from_map({1: 7}))
        with pytest.raises(InvalidParameterError):
            schemes.is_schedulable(self.t, schemes.ServedSet.from_map({1: 1, 7: 2}))
        # a shared transmitter is rejected before any index is checked
        assert not schemes.is_schedulable(self.t, schemes.ServedSet.from_map({1: 1, 7: 1}))

    @settings(max_examples=300, deadline=None)
    @given(topologies_with_served_set())
    def test_matches_pairwise_oracle(self, pair):
        t, s = pair

        def outcome(check):
            try:
                return check(t, s)
            except InvalidParameterError:
                return "raised"

        assert outcome(schemes.is_schedulable) == outcome(schedulable_pairwise)


class TestValidateSchedule:
    def test_accepts_canonical_output(self):
        t = topology.make_locally_connected(8, 2, topology.CYCLIC)
        a, sched = schemes.canonical_tdma(t)
        schemes.validate_schedule(t, a, sched)

    def test_rejects_server_outside_assignment(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3, 4])
        sched = schemes.TdmaSchedule(K=4, entries=(
            (schemes.ServedSet.from_map({2: 1}), F(1)),))
        with pytest.raises(InvalidScheduleError):
            schemes.validate_schedule(t, a, sched)

    def test_rejects_interfering_entry(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        sched = schemes.TdmaSchedule(K=4, entries=(
            (schemes.ServedSet.from_map({1: 1, 2: 2}), F(1)),))
        with pytest.raises(InvalidScheduleError):
            schemes.validate_schedule(t, None, sched)

    def test_rejects_size_mismatch(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        sched = schemes.TdmaSchedule(K=3, entries=(
            (schemes.ServedSet.from_map({1: 1}), F(1)),))
        with pytest.raises(InvalidScheduleError):
            schemes.validate_schedule(t, None, sched)


class TestScheduleDof:
    def test_sums_weighted_set_sizes(self):
        sched = schemes.TdmaSchedule(K=4, entries=(
            (schemes.ServedSet.from_map({1: 1, 3: 3}), F(1, 3)),
            (schemes.ServedSet.from_map({2: 2}), F(1, 3)),
        ))
        res = schemes.schedule_dof(sched)
        assert res.sum_dof == F(2, 3) + F(1, 3)
        assert res.method == schemes.METHOD_TDMA_SEARCH

    def test_validates_against_topology_when_given(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        sched = schemes.TdmaSchedule(K=4, entries=(
            (schemes.ServedSet.from_map({1: 1, 2: 2}), F(1)),))
        with pytest.raises(InvalidScheduleError):
            schemes.schedule_dof(sched, t)


class TestCanonicalTdma:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_cyclic_multiple_achieves_two_per_block(self, L):
        K = 2 * (L + 2)
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        a, sched = schemes.canonical_tdma(t)
        schemes.validate_schedule(t, a, sched)
        res = schemes.schedule_dof(sched, t, a, method=schemes.METHOD_CANONICAL)
        assert res.per_user == F(2, L + 2)

    def test_one_shot_single_entry(self):
        t = topology.make_locally_connected(8, 2, topology.CYCLIC)
        _, sched = schemes.canonical_tdma(t)
        assert len(sched.entries) == 1 and sched.entries[0][1] == 1

    def test_grid_always_schedulable_and_never_beats_search(self):
        for mode in topology.GENERATED_MODES:
            for K in range(1, 10):
                for L in range(0, K):
                    t = topology.make_locally_connected(K, L, mode)
                    a, sched = schemes.canonical_tdma(t)
                    schemes.validate_schedule(t, a, sched)
                    value = schemes.schedule_dof(sched).sum_dof
                    _, _, best = schemes.optimal_tdma(t)
                    assert value <= best.sum_dof, (mode, K, L)

    def test_explicit_topology_rejected(self):
        t = topology.explicit_topology(2, [(1, 1), (2, 2)])
        with pytest.raises(InvalidParameterError):
            schemes.canonical_tdma(t)


class TestMaximalServableSets:
    def test_l_zero_serves_everyone(self):
        t = topology.make_locally_connected(4, 0, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3, 4])
        sets = schemes.maximal_servable_sets(t, a)
        assert len(sets) == 1 and sets[0].served == frozenset([1, 2, 3, 4])

    def test_sets_are_schedulable_and_maximal(self):
        t = topology.make_locally_connected(6, 2, topology.CYCLIC)
        a = schemes.singleton_assignment([6, 1, 2, 3, 4, 5])
        sets = schemes.maximal_servable_sets(t, a)
        assert sets
        for s in sets:
            assert schemes.is_schedulable(t, s)
            outside = set(range(1, 7)) - s.served
            for extra in outside:
                grown = dict(s.server_of)
                grown[extra] = next(iter(a.transmit_sets[extra - 1]))
                assert not schemes.is_schedulable(t, schemes.ServedSet.from_map(grown))

    def test_multi_carrier_assignment_handled(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        full = frozenset([1, 2, 3, 4])
        a = schemes.MessageAssignment(transmit_sets=(full,) * 4, budget=None)
        sets = schemes.maximal_servable_sets(t, a)
        sizes = {len(s) for s in sets}
        assert max(sizes) == 2  # L=1 cyclic: at most every other receiver


class TestOptimalTdma:
    @pytest.mark.parametrize("K,want", [(4, 2), (6, 3), (8, 4)])
    def test_cyclic_l2_half_per_user(self, K, want):
        t = topology.make_locally_connected(K, 2, topology.CYCLIC)
        a, sched, res = schemes.optimal_tdma(t)
        assert res.sum_dof == F(want)
        assert res.per_user == F(1, 2)
        schemes.validate_schedule(t, a, sched)

    def test_search_beats_pattern_at_truncated_boundary(self):
        t = topology.make_locally_connected(5, 2, topology.TRUNCATED)
        _, _, res = schemes.optimal_tdma(t)
        _, csched = schemes.canonical_tdma(t)
        assert res.sum_dof == F(3)
        assert schemes.schedule_dof(csched).sum_dof == F(2)

    def test_budget_two_never_helps(self):
        for mode in topology.GENERATED_MODES:
            for K in range(2, 7):
                for L in range(0, min(3, K - 1) + 1):
                    t = topology.make_locally_connected(K, L, mode)
                    _, _, r1 = schemes.optimal_tdma(t, M=1)
                    _, _, r2 = schemes.optimal_tdma(t, M=2)
                    assert r2.sum_dof == r1.sum_dof, (mode, K, L)

    def test_unbounded_budget_accepted(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        _, _, res = schemes.optimal_tdma(t, M=None)
        assert res.sum_dof == F(2)

    def test_rotation_of_maximizer_stays_optimal(self):
        for K, L in [(4, 1), (6, 2), (5, 2)]:
            t = topology.make_locally_connected(K, L, topology.CYCLIC)
            a, _, res = schemes.optimal_tdma(t)
            rotated = schemes.MessageAssignment(
                transmit_sets=tuple(
                    frozenset(x % K + 1 for x in a.transmit_sets[(i - 2) % K])
                    for i in range(1, K + 1)),
                budget=a.budget)
            _, r2 = schemes.best_sum_schedule(t, rotated)
            assert r2.sum_dof == res.sum_dof

    def test_deterministic_output(self):
        t = topology.make_locally_connected(8, 2, topology.CYCLIC)
        assert schemes.optimal_tdma(t) == schemes.optimal_tdma(t)

    def test_size_limit_enforced(self):
        t = topology.explicit_topology(17, [(i, i) for i in range(1, 18)])
        with pytest.raises(ResourceLimitError):
            schemes.optimal_tdma(t)

    def test_bad_budget_rejected(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        with pytest.raises(InvalidParameterError):
            schemes.optimal_tdma(t, M=0)

    def test_schedule_lp_disagreement_raises(self, monkeypatch):
        real = schemes.best_sum_schedule

        def one_short(t, a):
            sched, res = real(t, a)
            return sched, dataclasses.replace(res, sum_dof=res.sum_dof - 1)

        monkeypatch.setattr(schemes, "best_sum_schedule", one_short)
        # explicit topologies keep the subset scan and its schedule cross-check
        t = topology.explicit_topology(4, [(i, i) for i in range(1, 5)] + [(2, 1), (4, 3)])
        with pytest.raises(RuntimeError, match="disagrees with the served-set search"):
            schemes.optimal_tdma(t)

    def test_generated_path_skips_schedule_cross_check(self, monkeypatch):
        def unused(t, a):
            raise AssertionError("generated topologies emit the gap DP schedule directly")

        monkeypatch.setattr(schemes, "best_sum_schedule", unused)
        monkeypatch.setattr(schemes, "maximal_servable_sets", unused)
        t = topology.make_locally_connected(8, 2, topology.CYCLIC)
        _, sched, res = schemes.optimal_tdma(t)
        assert res.sum_dof == 4 and len(sched.entries) == 1 and sched.entries[0][1] == 1

    @pytest.mark.parametrize("mode", topology.GENERATED_MODES)
    def test_unservable_gap_dp_receiver_raises(self, mode, monkeypatch):
        real = schemes._gap_dp

        def with_lowest_unserved(t):
            # the extra receiver crowds a member out of its server's reach
            value, served = real(t)
            extra = min(set(range(1, t.K + 1)) - set(served))
            return value + 1, tuple(sorted(served + (extra,)))

        monkeypatch.setattr(schemes, "_gap_dp", with_lowest_unserved)
        t = topology.make_locally_connected(8, 2, mode)
        with pytest.raises(RuntimeError, match="which no transmitter serves alone"):
            schemes.optimal_tdma(t)

    def test_gap_dp_value_must_match_its_set(self, monkeypatch):
        real = schemes._gap_dp
        monkeypatch.setattr(schemes, "_gap_dp", lambda t: (real(t)[0] + 1, real(t)[1]))
        t = topology.make_locally_connected(8, 2, topology.TRUNCATED)
        with pytest.raises(RuntimeError, match="differs from its served-set size"):
            schemes.optimal_tdma(t)

    def test_gap_dp_value_must_match_cyclic_closed_form(self, monkeypatch):
        real = schemes._gap_dp
        # one member short: still servable and self-consistent, but not optimal
        monkeypatch.setattr(schemes, "_gap_dp", lambda t: (real(t)[0] - 1, real(t)[1][:-1]))
        t = topology.make_locally_connected(8, 2, topology.CYCLIC)
        with pytest.raises(RuntimeError, match=re.escape("differs from max(1, floor(2K/(L+2)))")):
            schemes.optimal_tdma(t)

    @settings(max_examples=30, deadline=None)
    @given(generated_topologies(max_k=7))
    def test_result_is_integral_schedulable_and_within_range(self, t):
        a, sched, res = schemes.optimal_tdma(t)
        schemes.validate_schedule(t, a, sched)
        assert res.sum_dof.denominator == 1
        assert 1 <= res.sum_dof <= t.K
        assert schemes.schedule_dof(sched).sum_dof == res.sum_dof

    @settings(max_examples=30, deadline=None)
    @given(topologies_with_assignment(max_k=7))
    def test_fixed_assignment_schedule_never_beats_search(self, pair):
        t, a = pair
        _, fixed = schemes.best_sum_schedule(t, a)
        _, _, best = schemes.optimal_tdma(t)
        assert fixed.sum_dof <= best.sum_dof


class TestGapDp:
    def test_matches_subset_oracle(self):
        checked = 0
        for mode in topology.GENERATED_MODES:
            for K in range(1, 13):
                for L in range(K):
                    t = topology.make_locally_connected(K, L, mode)
                    want = tdma_optimum_by_subsets(t)
                    value, served = schemes._gap_dp(t)
                    assert (value, served) == (len(want), tuple(sorted(want))), (mode, K, L)
                    _, sched, res = schemes.optimal_tdma(t)
                    assert sched.entries[0][0].server_of == want, (mode, K, L)
                    assert res.sum_dof == len(want)
                    checked += 1
        assert checked == 156

    def test_cyclic_closed_form(self):
        for K in range(1, 301):
            for L in range(min(K, 7)):
                t = topology.make_locally_connected(K, L, topology.CYCLIC)
                assert schemes._gap_dp(t)[0] == max(1, 2 * K // (L + 2)), (K, L)

    def test_truncated_closed_form(self):
        # two receivers per block of L+2, one more in a non-empty tail
        for K in range(1, 301):
            for L in range(min(K, 7)):
                t = topology.make_locally_connected(K, L, topology.TRUNCATED)
                want = 2 * (K // (L + 2)) + (K % (L + 2) > 0)
                assert schemes._gap_dp(t)[0] == want, (K, L)

    @pytest.mark.parametrize("mode", topology.GENERATED_MODES)
    def test_wide_coverage_at_large_k(self, mode):
        t = topology.make_locally_connected(400, 300, mode)
        a, sched, res = schemes.optimal_tdma(t)
        schemes.validate_schedule(t, a, sched)
        assert res.sum_dof == (2 if mode == topology.CYCLIC else 3)
