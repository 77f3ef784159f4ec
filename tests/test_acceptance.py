"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line, and a cross-check of the simulation layer against
the float path it replaced.  Exact rational equalities throughout, and
exact ranks over GF(p) inside the simulation layer: no tolerance is in
play outside the float reference."""

import random
import time
from fractions import Fraction

import pytest

from timdof import demand_graph, linear_sim, schemes, serialize, topology

from oracles import (
    complex_gaussian_channel,
    complex_gaussian_scheme,
    complex_scheme_of,
    decodable_total_literal,
    reconstruction_report_literal,
)

F = Fraction

CONVERSE_K = 8
CONVERSE_L = 2
CONVERSE_SCHEMES = 200
CONVERSE_REALIZATIONS = 3
CONVERSE_SEED = 20260814
EVEN_RECEIVERS = tuple(range(2, CONVERSE_K + 1, 2))


def report(num, ok, description):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def converse_trials():
    """200 random full-cooperation schemes on the cyclic (K=8, L=2) network,
    each with 3 channel realizations; shared by criteria 5, 6, and 9."""
    t = topology.make_locally_connected(CONVERSE_K, CONVERSE_L, topology.CYCLIC)
    a = linear_sim.full_cooperation_assignment(CONVERSE_K)
    start = time.monotonic()
    records = []
    for idx in range(CONVERSE_SCHEMES):
        n = 1 + idx % 3
        scheme = linear_sim.random_scheme(t, a, n, density=1.0, seed=CONVERSE_SEED + idx)
        base = CONVERSE_SEED + 10 ** 6 + idx * CONVERSE_REALIZATIONS
        result = linear_sim.evaluate_dof(scheme, t, CONVERSE_REALIZATIONS, seed=base)
        reports = []
        for rep in range(CONVERSE_REALIZATIONS):
            c = linear_sim.sample_channel(t, n, seed=base + rep)
            reports.append(linear_sim.lemma1_check(scheme, c, EVEN_RECEIVERS))
        records.append({"n": n, "scheme": scheme, "result": result,
                        "reports": reports, "topology": t})
    return {"records": records, "elapsed": time.monotonic() - start, "topology": t}


def test_criterion_1_optimal_tdma_is_half_per_user_at_l2():
    start = time.monotonic()
    ok = True
    for K in (4, 6, 8):
        t = topology.make_locally_connected(K, 2, topology.CYCLIC)
        _, sched, res = schemes.optimal_tdma(t, M=1)
        schemes.validate_schedule(t, None, sched)
        ok = ok and res.per_user == F(1, 2)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(1, ok, f"cyclic L=2, K in {{4,6,8}}: per-user exactly 1/2 ({elapsed:.1f}s < 60s)")


def test_criterion_2_search_and_pattern_hit_two_over_l_plus_2():
    start = time.monotonic()
    ok = True
    for L in (1, 2, 3, 4):
        K = 2 * (L + 2)
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        _, _, res = schemes.optimal_tdma(t, M=1)
        ca, cs = schemes.canonical_tdma(t)
        canonical = schemes.schedule_dof(cs, t, ca, method=schemes.METHOD_CANONICAL)
        ok = ok and res.per_user == F(2, L + 2) == canonical.per_user
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    report(2, ok, f"cyclic K=2(L+2), L in 1..4: per-user exactly 2/(L+2), "
                  f"canonical matches ({elapsed:.1f}s < 300s)")


def test_criterion_3_lp_bound_equals_search_on_all_instances():
    instances = [(4, 2), (6, 2), (8, 2), (6, 1), (10, 3), (12, 4)]
    ok = True
    for K, L in instances:
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        _, _, res = schemes.optimal_tdma(t, M=1)
        bound = demand_graph.best_assignment_upper_bound(t)
        ok = ok and serialize.fraction_str(bound.value) == serialize.fraction_str(res.sum_dof)
        ok = ok and demand_graph.verify_certificate(bound, K)
    report(3, ok, "best-assignment LP bound string-equals the TDMA optimum on "
                  "every criterion 1-2 instance")


def test_criterion_4_truncated_topologies_are_chordal():
    ok = True
    for K in range(1, 11):
        for L in range(0, min(4, K - 1) + 1):
            t = topology.make_locally_connected(K, L, topology.TRUNCATED)
            ok = ok and topology.is_chordal_bipartite(t) is True
    report(4, ok, "is_chordal_bipartite true for all truncated K <= 10, L <= 4")


def test_criterion_5_no_linear_scheme_beats_k_over_2(converse_trials):
    bound = F(CONVERSE_K, 2)
    ok = True
    for rec in converse_trials["records"]:
        result = rec["result"]
        ok = ok and result.sum_dof <= bound
        ok = ok and all(F(total, rec["n"]) <= bound for total in result.trial_totals)
    elapsed = converse_trials["elapsed"]
    ok = ok and elapsed < 300
    report(5, ok, f"{CONVERSE_SCHEMES} random full-cooperation schemes at cyclic "
                  f"(K=8, L=2): sum DoF <= 4 in 100% of trials ({elapsed:.1f}s < 300s)")


def test_criterion_6_zero_deficiency_trials_reconstruct(converse_trials):
    zero_deficiency = 0
    ok = True
    for rec in converse_trials["records"]:
        for rep in rec["reports"]:
            if rep.r == rep.s:
                zero_deficiency += 1
                ok = ok and rep.reconstructable
    ok = ok and zero_deficiency > 0
    report(6, ok, f"reconstructable in 100% of the {zero_deficiency} zero-deficiency "
                  f"trials (B = even receivers)")


def embedded_schedules():
    """Criterion 7's 50 random schedules on K <= 8: (topology, assignment,
    schedule, embedded scheme, channel seed), drawn from a fixed seed."""
    rng = random.Random(20260814)
    out = []
    while len(out) < 50:
        K = rng.randint(2, 8)
        L = rng.randint(0, min(3, K - 1))
        mode = rng.choice(topology.GENERATED_MODES)
        t = topology.make_locally_connected(K, L, mode)
        carriers = [rng.choice(topology.transmitters_heard_by(t, i))
                    for i in range(1, K + 1)]
        a = schemes.singleton_assignment(carriers)
        sets = schemes.maximal_servable_sets(t, a)
        denom = rng.choice([2, 3, 4, 6])
        count = rng.randint(1, min(len(sets), denom))
        entries = tuple((s, F(1, denom)) for s in rng.sample(sets, count))
        sched = schemes.TdmaSchedule(K=K, entries=entries)
        scheme = linear_sim.scheme_from_schedule(t, a, sched)
        out.append((t, a, sched, scheme, rng.randrange(10 ** 6)))
    return out


def test_criterion_7_schedule_embedding_matches_combinatorial_dof():
    ok = True
    for t, a, sched, scheme, seed in embedded_schedules():
        want = schemes.schedule_dof(sched, t, a).sum_dof
        got = linear_sim.evaluate_dof(scheme, t, trials=2, seed=seed)
        ok = ok and got.sum_dof == want and not got.unstable
    report(7, ok, "evaluate_dof(scheme_from_schedule) equals schedule_dof exactly "
                  "on 50 random schedules, K <= 8")


def test_criterion_8_stacked_matrix_zero_pattern_is_exhaustively_correct():
    import numpy as np

    ok = True
    for mode in topology.GENERATED_MODES:
        for K in range(1, 11):
            for L in range(0, min(4, K - 1) + 1):
                t = topology.make_locally_connected(K, L, mode)
                a = linear_sim.full_cooperation_assignment(K)
                for n in (1, 2, 3):
                    s = linear_sim.random_scheme(t, a, n, 1.0, seed=K * 100 + L * 10 + n)
                    c = linear_sim.sample_channel(t, n, seed=K * 100 + L * 10 + n + 1)
                    B = tuple(range(2, K + 1, 2)) or (1,)
                    mat = linear_sim.build_stacked_matrix(s, c, B)
                    for bi, i in enumerate(B):
                        for j in range(1, K + 1):
                            block = mat[bi * n:(bi + 1) * n, (j - 1) * n:j * n]
                            ok = ok and np.array_equal(np.diag(np.diag(block)), block)
                            ok = ok and bool(np.any(block)) == t.connected(i, j)
    report(8, ok, "stacked-matrix blocks are slot-diagonal with the topology's "
                  "zero pattern for all K <= 10, L <= 4, n <= 3")


def test_criterion_9_generic_rank_is_stable_across_redraws(converse_trials):
    t = converse_trials["topology"]
    ok = True
    for idx, rec in enumerate(converse_trials["records"]):
        result = linear_sim.evaluate_dof(
            rec["scheme"], t, trials=10, seed=CONVERSE_SEED + 10 ** 7 + idx)
        ok = ok and result.disagreement_rate < F(1, 100)
        ok = ok and not result.unstable
    report(9, ok, "decodable symbols identical across 10 redraws for every "
                  "criterion 5 scheme (disagreement < 1%, flagged)")


def test_exact_ranks_agree_with_the_float_svd_path(converse_trials):
    """Criterion 5's converse schemes and criterion 7's embeddings, evaluated
    again on the float path: complex Gaussian precoders with the same symbol
    counts and assignment, complex Gaussian channels, and literal maps
    ranked by SVD, at both coherences.  Every decodability total and lemma1
    report must equal the GF(p) result, draw by draw."""
    t = converse_trials["topology"]
    a = linear_sim.full_cooperation_assignment(CONVERSE_K)
    for idx, rec in enumerate(converse_trials["records"]):
        n = rec["n"]
        floats = complex_gaussian_scheme(t, a, n, 1.0, seed=CONVERSE_SEED + idx)
        assert floats.symbol_counts == rec["scheme"].symbol_counts
        seeds = range(CONVERSE_SEED + 10 ** 6 + idx * CONVERSE_REALIZATIONS,
                      CONVERSE_SEED + 10 ** 6 + (idx + 1) * CONVERSE_REALIZATIONS)
        constant = linear_sim.channel_trials(rec["scheme"], t, seeds, linear_sim.CONSTANT,
                                             EVEN_RECEIVERS)
        for seed, total, report, record in zip(seeds, rec["result"].trial_totals,
                                               rec["reports"], constant):
            for coherence, want in ((linear_sim.TIME_VARYING, (total, report)),
                                    (linear_sim.CONSTANT, (record.total, record.report))):
                c = complex_gaussian_channel(t, n, coherence, seed)
                assert want == (decodable_total_literal(floats, c),
                                reconstruction_report_literal(floats, c, EVEN_RECEIVERS))
    for t, _, _, scheme, seed in embedded_schedules():
        floats = complex_scheme_of(scheme)
        B = tuple(range(2, t.K + 1, 2))
        for coherence in linear_sim.COHERENCE_MODES:
            seeds = (seed, seed + 1)
            for draw_seed, record in zip(seeds, linear_sim.channel_trials(
                    scheme, t, seeds, coherence, B)):
                c = complex_gaussian_channel(t, scheme.n, coherence, draw_seed)
                assert record.total == decodable_total_literal(floats, c)
                assert record.report == reconstruction_report_literal(floats, c, B)
