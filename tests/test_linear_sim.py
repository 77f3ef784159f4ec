"""Linear cooperation schemes: sampling, generic-rank decodability,
schedule embedding, stacked matrices, and the reconstruction diagnostic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timdof import linear_sim, schemes, topology
from timdof.errors import InvalidInputError, InvalidParameterError, ResourceLimitError

from oracles import decodable_total_literal, received_maps_literal, reconstruction_report_literal

F = Fraction


@st.composite
def sim_instances(draw, max_k=5, max_n=3):
    K = draw(st.integers(1, max_k))
    L = draw(st.integers(0, K - 1))
    mode = draw(st.sampled_from(topology.GENERATED_MODES))
    t = topology.make_locally_connected(K, L, mode)
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        a = linear_sim.full_cooperation_assignment(K)
    else:
        carriers = [draw(st.sampled_from(topology.transmitters_heard_by(t, i)))
                    for i in range(1, K + 1)]
        a = schemes.singleton_assignment(carriers)
    density = draw(st.sampled_from([0.4, 0.8, 1.0]))
    seed = draw(st.integers(0, 10 ** 6))
    s = linear_sim.random_scheme(t, a, n, density, seed=seed)
    c = linear_sim.sample_channel(t, n, seed=seed + 1)
    return t, s, c


@st.composite
def oracle_instances(draw, max_k=6, max_n=3):
    """Schemes of every kind the simulation layer meets, on generated or
    explicit topologies, with a receiver set and a channel coherence."""
    K = draw(st.integers(1, max_k))
    if draw(st.booleans()):
        t = topology.make_locally_connected(
            K, draw(st.integers(0, K - 1)), draw(st.sampled_from(topology.GENERATED_MODES)))
    else:
        pairs = st.tuples(st.integers(1, K), st.integers(1, K))
        extra = draw(st.sets(pairs, max_size=2 * K))
        t = topology.explicit_topology(K, {(i, i) for i in range(1, K + 1)} | extra)
    carriers = [draw(st.sampled_from(topology.transmitters_heard_by(t, i)))
                for i in range(1, K + 1)]
    singleton = schemes.singleton_assignment(carriers)
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from(("full", "singleton", "schedule", "counts")))
    if kind == "schedule":
        denom = draw(st.integers(1, 3))
        served = draw(st.lists(st.sampled_from(schemes.maximal_servable_sets(t, singleton)),
                               min_size=1, max_size=denom, unique=True))
        sched = schemes.TdmaSchedule(K=K, entries=tuple((x, F(1, denom)) for x in served))
        s = linear_sim.scheme_from_schedule(t, singleton, sched)
    elif kind == "counts":
        # zero-symbol messages, and carriers that send nothing (no precoder)
        a = draw(st.sampled_from([singleton, linear_sim.full_cooperation_assignment(K)]))
        counts = tuple(draw(st.integers(0, n)) for _ in range(K))
        rng = np.random.default_rng(seed)
        precoders = {}
        for i in range(1, K + 1):
            for j in sorted(a.transmit_sets[i - 1]):
                if draw(st.booleans()):
                    shape = (n, counts[i - 1])
                    precoders[(j, i)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = linear_sim.LinearScheme(n=n, assignment=a, symbol_counts=counts, precoders=precoders)
    else:
        a = linear_sim.full_cooperation_assignment(K) if kind == "full" else singleton
        s = linear_sim.random_scheme(t, a, n, draw(st.sampled_from([0.3, 0.7, 1.0])), seed=seed)
    coherence = draw(st.sampled_from(linear_sim.COHERENCE_MODES))
    B = tuple(sorted(draw(st.sets(st.integers(1, K)))))
    return t, s, coherence, B, seed


class TestSampleChannel:
    @pytest.mark.parametrize("K,L,mode", [
        (5, 1, topology.TRUNCATED), (8, 7, topology.CYCLIC), (9, 3, topology.CYCLIC),
        (17, 2, topology.TRUNCATED)])
    def test_support_matches_topology(self, K, L, mode):
        # masks are unpacked byte-wise, so K straddles byte boundaries
        t = topology.make_locally_connected(K, L, mode)
        c = linear_sim.sample_channel(t, 3, seed=0)
        for i in range(1, K + 1):
            for j in range(1, K + 1):
                if t.connected(i, j):
                    assert np.all(c.h[i - 1, j - 1, :] != 0)
                else:
                    assert np.all(c.h[i - 1, j - 1, :] == 0)

    def test_constant_coherence_repeats_one_draw(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        c = linear_sim.sample_channel(t, 3, linear_sim.CONSTANT, seed=1)
        assert np.array_equal(c.h[:, :, 0], c.h[:, :, 1])
        assert np.array_equal(c.h[:, :, 0], c.h[:, :, 2])

    def test_time_varying_slots_differ(self):
        t = topology.make_locally_connected(4, 2, topology.CYCLIC)
        c = linear_sim.sample_channel(t, 2, seed=1)
        assert not np.array_equal(c.h[:, :, 0], c.h[:, :, 1])

    def test_same_seed_same_channel(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = linear_sim.sample_channel(t, 2, seed=7)
        b = linear_sim.sample_channel(t, 2, seed=7)
        assert np.array_equal(a.h, b.h)

    def test_seed_is_mandatory(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        with pytest.raises(InvalidParameterError):
            linear_sim.sample_channel(t, 2)

    def test_bad_inputs_rejected(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        with pytest.raises(InvalidParameterError):
            linear_sim.sample_channel(t, 0, seed=1)
        with pytest.raises(InvalidParameterError):
            linear_sim.sample_channel(t, 2, "block-fading", seed=1)


class TestLinearScheme:
    def test_foreign_precoder_key_rejected(self):
        a = schemes.singleton_assignment([1, 2])
        with pytest.raises(InvalidParameterError):
            linear_sim.LinearScheme(
                n=2, assignment=a, symbol_counts=(1, 1),
                precoders={(2, 1): np.zeros((2, 1), dtype=complex)})

    def test_wrong_shape_rejected(self):
        a = schemes.singleton_assignment([1, 2])
        with pytest.raises(InvalidParameterError):
            linear_sim.LinearScheme(
                n=2, assignment=a, symbol_counts=(1, 1),
                precoders={(1, 1): np.zeros((2, 2), dtype=complex)})

    def test_symbol_count_beyond_slots_rejected(self):
        a = schemes.singleton_assignment([1, 2])
        with pytest.raises(InvalidParameterError):
            linear_sim.LinearScheme(n=2, assignment=a, symbol_counts=(3, 1), precoders={})

    def test_missing_precoder_reads_as_zero(self):
        a = schemes.singleton_assignment([1, 2])
        s = linear_sim.LinearScheme(n=2, assignment=a, symbol_counts=(1, 1), precoders={})
        assert np.array_equal(s.precoder(1, 1), np.zeros((2, 1)))


class TestReceivedMap:
    @settings(max_examples=40, deadline=None)
    @given(sim_instances())
    def test_matches_literal_scalar_loops(self, inst):
        t, s, c = inst
        for i in range(1, t.K + 1):
            desired, interference = linear_sim.received_map(s, c, i)
            want_d, want_z = received_maps_literal(s, c, i)
            assert np.allclose(desired, want_d)
            assert np.allclose(interference, want_z)

    def test_receiver_range_validated(self):
        t = topology.make_locally_connected(2, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(2), 2, 1.0, seed=0)
        c = linear_sim.sample_channel(t, 2, seed=1)
        with pytest.raises(InvalidParameterError):
            linear_sim.received_map(s, c, 3)

    def test_scheme_channel_mismatch_rejected(self):
        t = topology.make_locally_connected(2, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(2), 2, 1.0, seed=0)
        c = linear_sim.sample_channel(t, 3, seed=1)
        with pytest.raises(InvalidInputError):
            linear_sim.received_map(s, c, 1)


class TestDecodableSymbols:
    @settings(max_examples=30, deadline=None)
    @given(sim_instances(), st.sampled_from([1e-3, 4.0, -2.5]))
    def test_scaling_all_precoders_changes_nothing(self, inst, scale):
        t, s, c = inst
        scaled = linear_sim.LinearScheme(
            n=s.n, assignment=s.assignment, symbol_counts=s.symbol_counts,
            precoders={k: scale * v for k, v in s.precoders.items()})
        for i in range(1, t.K + 1):
            assert (linear_sim.decodable_symbols(s, c, i)
                    == linear_sim.decodable_symbols(scaled, c, i))

    def test_silent_scheme_decodes_nothing(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3])
        s = linear_sim.LinearScheme(n=2, assignment=a, symbol_counts=(1, 1, 1), precoders={})
        c = linear_sim.sample_channel(t, 2, seed=5)
        assert all(linear_sim.decodable_symbols(s, c, i) == 0 for i in (1, 2, 3))

    def test_isolated_direct_links_decode_everything(self):
        t = topology.make_locally_connected(3, 0, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3])
        eye = np.eye(2, dtype=complex)
        s = linear_sim.LinearScheme(
            n=2, assignment=a, symbol_counts=(2, 2, 2),
            precoders={(i, i): eye for i in (1, 2, 3)})
        c = linear_sim.sample_channel(t, 2, seed=5)
        assert all(linear_sim.decodable_symbols(s, c, i) == 2 for i in (1, 2, 3))


class TestAggregateTrials:
    def test_unanimous_is_stable(self):
        assert linear_sim.aggregate_trials([3, 3, 3]) == (3, F(0), False)

    def test_minority_disagreement_flagged_over_one_percent(self):
        modal, rate, unstable = linear_sim.aggregate_trials([1, 2, 1, 1])
        assert (modal, rate, unstable) == (1, F(1, 4), True)

    def test_one_percent_boundary_is_stable(self):
        totals = [5] * 99 + [6]
        modal, rate, unstable = linear_sim.aggregate_trials(totals)
        assert (modal, rate, unstable) == (5, F(1, 100), False)

    def test_tie_resolves_to_smallest_value(self):
        modal, rate, unstable = linear_sim.aggregate_trials([2, 1])
        assert modal == 1 and rate == F(1, 2) and unstable

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            linear_sim.aggregate_trials([])


class TestEvaluateDof:
    def test_deterministic_and_bookkept(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(4), 2, 1.0, seed=3)
        r1 = linear_sim.evaluate_dof(s, t, trials=4, seed=11)
        r2 = linear_sim.evaluate_dof(s, t, trials=4, seed=11)
        assert r1 == r2
        assert r1.trials == 4 and len(r1.trial_totals) == 4
        assert r1.method == schemes.METHOD_LINEAR_SIM
        assert r1.sum_dof == F(min(r1.trial_totals), 2) or not r1.unstable

    def test_trial_count_validated(self):
        t = topology.make_locally_connected(2, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(2), 1, 1.0, seed=0)
        with pytest.raises(InvalidParameterError):
            linear_sim.evaluate_dof(s, t, trials=0, seed=1)

    def test_topology_mismatch_rejected(self):
        t2 = topology.make_locally_connected(2, 1, topology.CYCLIC)
        t3 = topology.make_locally_connected(3, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t2, linear_sim.full_cooperation_assignment(2), 1, 1.0, seed=0)
        with pytest.raises(InvalidInputError):
            linear_sim.evaluate_dof(s, t3, trials=1, seed=1)


class TestChannelTrials:
    def test_each_draw_matches_the_single_draw_primitives(self):
        t = topology.make_locally_connected(6, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(6), 2, 0.5, seed=4)
        B = (2, 4, 6)
        records = list(linear_sim.channel_trials(s, t, [7, 8], linear_sim.CONSTANT, B))
        for seed, record in zip([7, 8], records):
            c = linear_sim.sample_channel(t, 2, linear_sim.CONSTANT, seed)
            assert record.total == sum(linear_sim.decodable_symbols(s, c, i) for i in range(1, 7))
            assert record.report == linear_sim.lemma1_check(s, c, B)
        assert linear_sim.dof_from_trials(s, records) == \
            linear_sim.evaluate_dof(s, t, trials=2, seed=7, coherence=linear_sim.CONSTANT)

    def test_computes_only_what_is_asked(self, monkeypatch):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(4), 2, 1.0, seed=3)
        (totals_only,) = linear_sim.channel_trials(s, t, [5])
        assert totals_only.report is None and totals_only.total is not None

        def unexpected(*args):
            raise AssertionError("decodability counted without totals")

        # the batched counts are the only route to a total
        monkeypatch.setattr(linear_sim, "_decodable_counts", unexpected)
        (report_only,) = linear_sim.channel_trials(s, t, [5], receivers=(2, 4), totals=False)
        assert report_only.total is None and report_only.report.B == (2, 4)


class TestBatchedAgainstLiteral:
    @settings(max_examples=80, deadline=None)
    @given(oracle_instances())
    def test_totals_and_reports_equal_the_per_receiver_oracle(self, inst):
        t, s, coherence, B, seed = inst
        seeds = [seed + 1, seed + 2]
        records = list(linear_sim.channel_trials(s, t, seeds, coherence, B))
        for draw_seed, record in zip(seeds, records):
            c = linear_sim.sample_channel(t, s.n, coherence, draw_seed)
            assert record.total == decodable_total_literal(s, c)
            want = reconstruction_report_literal(s, c, B)
            assert record.report == want
            assert linear_sim.lemma1_check(s, c, B) == want


    @pytest.mark.parametrize("rows_per_block", [1, 3, 5])
    def test_receiver_blocks_bound_the_maps_held_at_once(self, monkeypatch, rows_per_block):
        K, n, B = 12, 2, (1, 2, 5, 9)
        t = topology.make_locally_connected(K, 2, topology.CYCLIC)
        single = schemes.singleton_assignment(range(1, K + 1), budget=1)
        s = linear_sim.random_scheme(t, single, n, 1.0, seed=4)
        M = sum(s.symbol_counts)
        monkeypatch.setattr(linear_sim, "RECEIVER_BLOCK_ENTRIES", rows_per_block * n * M)
        held = []
        maps = linear_sim._received_maps

        def counted(s, c, rows):
            held.append(len(rows))
            return maps(s, c, rows)

        monkeypatch.setattr(linear_sim, "_received_maps", counted)
        (record,) = linear_sim.channel_trials(s, t, [5], receivers=B)
        c = linear_sim.sample_channel(t, n, seed=5)
        assert record.total == decodable_total_literal(s, c)
        assert record.report == reconstruction_report_literal(s, c, B)
        assert max(held) == rows_per_block
        assert sum(held) == K + len(B)


class TestSchemeFromSchedule:
    def test_embedding_reproduces_schedule_dof_exactly(self):
        t = topology.make_locally_connected(6, 2, topology.CYCLIC)
        a, sched, res = schemes.optimal_tdma(t)
        s = linear_sim.scheme_from_schedule(t, a, sched)
        sim = linear_sim.evaluate_dof(s, t, trials=3, seed=19)
        assert sim.sum_dof == res.sum_dof and not sim.unstable

    def test_fractional_entries_partition_slots(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3, 4])
        sched = schemes.TdmaSchedule(K=4, entries=(
            (schemes.ServedSet.from_map({1: 1, 3: 3}), F(1, 2)),
            (schemes.ServedSet.from_map({2: 2, 4: 4}), F(1, 2)),
        ))
        s = linear_sim.scheme_from_schedule(t, a, sched)
        assert s.n == 2 and s.symbol_counts == (1, 1, 1, 1)
        for mat in s.precoders.values():
            assert set(np.unique(mat)) <= {0, 1}
        sim = linear_sim.evaluate_dof(s, t, trials=2, seed=23)
        assert sim.sum_dof == F(2)

    def test_explicit_n_must_clear_denominators(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3])
        sched = schemes.TdmaSchedule(K=3, entries=(
            (schemes.ServedSet.from_map({1: 1}), F(1, 3)),))
        s = linear_sim.scheme_from_schedule(t, a, sched, n=6)
        assert s.n == 6 and s.symbol_counts[0] == 2
        with pytest.raises(InvalidParameterError):
            linear_sim.scheme_from_schedule(t, a, sched, n=4)

    def test_lcm_above_cap_rejected(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3])
        sched = schemes.TdmaSchedule(K=3, entries=(
            (schemes.ServedSet.from_map({1: 1}), F(1, 65)),))
        with pytest.raises(InvalidParameterError):
            linear_sim.scheme_from_schedule(t, a, sched)

    def test_schedule_must_validate(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3, 4])
        bad = schemes.TdmaSchedule(K=4, entries=(
            (schemes.ServedSet.from_map({1: 1, 2: 2}), F(1)),))
        with pytest.raises(Exception):
            linear_sim.scheme_from_schedule(t, a, bad)


class TestBuildStackedMatrix:
    def test_blocks_are_slot_diagonal_and_respect_support(self):
        t = topology.make_locally_connected(6, 2, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(6), 3, 1.0, seed=2)
        c = linear_sim.sample_channel(t, 3, seed=4)
        B = (2, 4, 6)
        m = linear_sim.build_stacked_matrix(s, c, B)
        assert m.shape == (9, 18)
        for bi, i in enumerate(B):
            for j in range(1, 7):
                block = m[bi * 3:(bi + 1) * 3, (j - 1) * 3:j * 3]
                assert np.array_equal(np.diag(np.diag(block)), block)
                assert bool(np.any(block)) == t.connected(i, j)
                assert np.array_equal(np.diag(block), c.h[i - 1, j - 1, :])

    def test_receiver_set_sorted_and_validated(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        s = linear_sim.random_scheme(t, linear_sim.full_cooperation_assignment(4), 1, 1.0, seed=0)
        c = linear_sim.sample_channel(t, 1, seed=1)
        assert np.array_equal(linear_sim.build_stacked_matrix(s, c, (3, 1)),
                              linear_sim.build_stacked_matrix(s, c, (1, 3)))
        with pytest.raises(InvalidParameterError):
            linear_sim.build_stacked_matrix(s, c, (1, 1))
        with pytest.raises(InvalidParameterError):
            linear_sim.build_stacked_matrix(s, c, (0, 2))


class TestLemma1Check:
    def _full_coop_instance(self, n=2, seed=0):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        a = linear_sim.full_cooperation_assignment(4)
        s = linear_sim.random_scheme(t, a, n, 1.0, seed=seed)
        c = linear_sim.sample_channel(t, n, seed=seed + 1)
        return t, s, c

    def test_full_cooperation_everything_interferes(self):
        _, s, c = self._full_coop_instance()
        rep = linear_sim.lemma1_check(s, c, (2, 4))
        assert rep.B == (2, 4)
        assert rep.exclusive_transmitters == ()
        assert rep.interfering_transmitters == (1, 2, 3, 4)
        assert rep.s == s.symbol_counts[0] + s.symbol_counts[2]
        assert rep.deficiency == rep.s - rep.r

    def test_singleton_assignment_splits_transmitters(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3, 4])
        s = linear_sim.random_scheme(t, a, 2, 1.0, seed=3)
        c = linear_sim.sample_channel(t, 2, seed=4)
        rep = linear_sim.lemma1_check(s, c, (2, 4))
        assert rep.interfering_transmitters == (1, 3)
        assert rep.exclusive_transmitters == (2, 4)

    def test_zero_symbol_messages_carry_nothing(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        a = schemes.singleton_assignment([1, 2, 3, 4])
        s = linear_sim.LinearScheme(
            n=2, assignment=a, symbol_counts=(0, 2, 0, 2),
            precoders={(2, 2): np.eye(2, dtype=complex), (4, 4): np.eye(2, dtype=complex)})
        c = linear_sim.sample_channel(t, 2, seed=9)
        rep = linear_sim.lemma1_check(s, c, (2, 4))
        assert rep.interfering_transmitters == ()
        assert rep.s == 0 and rep.r == 0 and rep.reconstructable

    @settings(max_examples=40, deadline=None)
    @given(sim_instances(max_k=5))
    def test_zero_deficiency_implies_reconstructable(self, inst):
        t, s, c = inst
        B = tuple(range(2, t.K + 1, 2)) or (1,)
        rep = linear_sim.lemma1_check(s, c, B)
        assert 0 <= rep.r <= rep.s
        assert rep.deficiency == rep.s - rep.r
        if rep.r == rep.s:
            assert rep.reconstructable


class TestRandomScheme:
    def test_deterministic_for_seed(self):
        t = topology.make_locally_connected(4, 1, topology.CYCLIC)
        a = linear_sim.full_cooperation_assignment(4)
        s1 = linear_sim.random_scheme(t, a, 3, 0.7, seed=21)
        s2 = linear_sim.random_scheme(t, a, 3, 0.7, seed=21)
        assert s1.symbol_counts == s2.symbol_counts
        assert set(s1.precoders) == set(s2.precoders)
        for k in s1.precoders:
            assert np.array_equal(s1.precoders[k], s2.precoders[k])

    def test_full_density_activates_every_message(self):
        t = topology.make_locally_connected(5, 2, topology.CYCLIC)
        a = linear_sim.full_cooperation_assignment(5)
        s = linear_sim.random_scheme(t, a, 2, 1.0, seed=13)
        assert all(1 <= m <= 2 for m in s.symbol_counts)

    @pytest.mark.parametrize("density", [0.0, -0.1, 1.2])
    def test_density_outside_half_open_interval_rejected(self, density):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = linear_sim.full_cooperation_assignment(3)
        with pytest.raises(InvalidParameterError):
            linear_sim.random_scheme(t, a, 2, density, seed=1)

    def test_slot_cap_enforced(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = linear_sim.full_cooperation_assignment(3)
        with pytest.raises(ResourceLimitError):
            linear_sim.random_scheme(t, a, 9, 1.0, seed=1)

    def test_seed_is_mandatory(self):
        t = topology.make_locally_connected(3, 1, topology.CYCLIC)
        a = linear_sim.full_cooperation_assignment(3)
        with pytest.raises(InvalidParameterError):
            linear_sim.random_scheme(t, a, 2, 1.0)


def test_full_cooperation_assignment_is_unbounded_and_complete():
    a = linear_sim.full_cooperation_assignment(3)
    assert a.budget is None
    assert all(ts == frozenset([1, 2, 3]) for ts in a.transmit_sets)
