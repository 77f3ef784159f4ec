"""Independent checks on every benchmark request's output, and their self-test.

The checks parse what a request printed and re-derive its claims with
other library functions: certificates are re-verified and their subsets
re-tested for acyclicity, TDMA schedules re-validated and compared with
the cyclic closed form max(1, floor(2K/(L+2))), simulated sum DoF held
to the K/2 converse, and zero-deficiency trials required to reconstruct.

Every benchmark run first shows, with ``selftest``, that each check
rejects a deliberately corrupted output.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from timdof import demand_graph, schemes, serialize, topology

from workloads import CYCLIC, TRUNCATED, Request, cli_request


class CheckError(Exception):
    """A request's output contradicts an independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def cyclic_tdma_optimum(K: int, L: int) -> int:
    return max(1, 2 * K // (L + 2))


class CheckContext:
    """What checks learn across requests: TDMA values per instance, and
    how many sampled trials reached the K/2 wall."""

    def __init__(self):
        self.tdma: dict[tuple[str, int, int], Fraction] = {}
        self.wall_hits = 0
        self.wall_trials = 0

    def tdma_value(self, mode: str, K: int, L: int) -> Fraction:
        if mode == topology.CYCLIC:
            return Fraction(cyclic_tdma_optimum(K, L))
        value = self.tdma.get((mode, K, L))
        _require(value is not None, f"no TDMA value for {mode} K={K} L={L} to compare against")
        return value

    def count_trial(self, sum_dof: Fraction, K: int) -> None:
        self.wall_trials += 1
        self.wall_hits += sum_dof == Fraction(K, 2)


def _schedule_sum(sched: schemes.TdmaSchedule) -> Fraction:
    return sum((lam * len(served) for served, lam in sched.entries), Fraction(0))


def _check_schedule_doc(req, doc) -> Fraction:
    t = topology.make_locally_connected(req.K, req.L, req.mode)
    a = serialize.assignment_from_dict(doc["assignment"])
    sched = serialize.schedule_from_dict(doc["schedule"])
    result = serialize.dof_result_from_dict(doc["result"])
    schemes.validate_schedule(t, a, sched)
    _require(_schedule_sum(sched) == result.sum_dof,
             f"schedule serves {_schedule_sum(sched)}, result claims {result.sum_dof}")
    return result.sum_dof


def check_tdma(req, output, ctx):
    value = _check_schedule_doc(req, serialize.loads(output))
    if req.mode == topology.CYCLIC:
        optimum = cyclic_tdma_optimum(req.K, req.L)
        _require(value == optimum, f"TDMA {value} differs from the cyclic optimum {optimum}")
    ctx.tdma[(req.mode, req.K, req.L)] = value


def check_canonical(req, output, ctx):
    value = _check_schedule_doc(req, serialize.loads(output))
    optimum = cyclic_tdma_optimum(req.K, req.L)
    _require(value <= optimum, f"canonical {value} beats the TDMA optimum {optimum}")
    if req.K % (req.L + 2) == 0:
        _require(value == optimum, f"canonical {value} misses the optimum {optimum}")


def check_bound(req, output, ctx):
    doc = serialize.loads(output)
    bound = serialize.dof_bound_from_dict(doc["bound"])
    result = serialize.dof_result_from_dict(doc["result"])
    _require(result.sum_dof == bound.value, "result and bound disagree")
    _require(demand_graph.verify_certificate(bound, req.K), "certificate does not prove the bound")
    _require(bound.assignment is not None, "bound reports no assignment")
    if "carriers" in req.params:
        reported = [next(iter(ts)) for ts in bound.assignment.transmit_sets]
        _require(reported == req.params["carriers"], "bound is for another assignment")
    else:
        tdma = ctx.tdma_value(req.mode, req.K, req.L)
        _require(bound.value >= tdma, f"bound {bound.value} below the TDMA value {tdma}")
    t = topology.make_locally_connected(req.K, req.L, req.mode)
    g = demand_graph.build_demand_graph(t, bound.assignment)
    for subset, _ in bound.certificate:
        _require(demand_graph.is_acyclic_subset(g, subset),
                 f"certificate subset {sorted(subset)} has a cycle")


def check_chordal(req, output, ctx):
    doc = serialize.loads(output)
    t = serialize.topology_from_dict(doc)
    _require((t.K, t.L, t.mode) == (req.K, req.L, req.mode), "topology document mismatch")
    _require(doc.get("chordal_bipartite") is True, "truncated topology not reported chordal")


def _check_trial(req, ctx, sum_dof: Fraction, deficiency: int, reconstructable: bool):
    _require(sum_dof <= Fraction(req.K, 2), f"sum DoF {sum_dof} above K/2 = {Fraction(req.K, 2)}")
    _require(deficiency != 0 or reconstructable, "zero-deficiency trial does not reconstruct")
    ctx.count_trial(sum_dof, req.K)


def check_converse(req, output, ctx):
    lines = output.splitlines()
    _require(bool(lines) and lines[0].startswith("# timdof "), "missing seed header")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    want = req.params["trials"] * req.params["realizations"]
    _require(len(rows) == want, f"expected {want} rows, got {len(rows)}")
    for row in rows:
        s, r, deficiency = int(row["s"]), int(row["r"]), int(row["deficiency"])
        _require(deficiency == s - r, "deficiency is not s - r")
        _check_trial(req, ctx, serialize.parse_fraction(row["sum_dof"]), deficiency,
                     row["reconstructable"] == "True")


def check_lin_eval(req, output, ctx):
    doc = serialize.loads(output)
    result = serialize.dof_result_from_dict(doc["result"])
    n = req.params["n"]
    totals = result.trial_totals
    _require(doc["scheme"]["n"] == n and len(totals) == req.params["trials"], "wrong trial shape")
    counts = Counter(totals)
    modal = min(v for v, f in counts.items() if f == max(counts.values()))
    _require(result.sum_dof == Fraction(modal, n), "sum DoF is not the modal trial total")
    _require(result.sum_dof <= Fraction(req.K, 2), f"sum DoF {result.sum_dof} above K/2")
    for total in totals:
        sum_dof = Fraction(total, n)
        _require(sum_dof <= Fraction(req.K, 2), f"trial sum DoF {sum_dof} above K/2")
        ctx.count_trial(sum_dof, req.K)


def check_lemma1(req, output, ctx):
    report = serialize.report_from_dict(serialize.loads(output))
    _require(report.deficiency != 0 or report.reconstructable,
             "zero-deficiency report does not reconstruct")


def check_embed(req, output, ctx):
    t = topology.make_locally_connected(req.K, req.L, req.mode)
    assignment, schedule, tdma, simulated = output
    schemes.validate_schedule(t, assignment, schedule)
    _require(tdma.sum_dof == cyclic_tdma_optimum(req.K, req.L), "TDMA optimum is off")
    _require(simulated.sum_dof == tdma.sum_dof,
             f"embedded schedule simulates to {simulated.sum_dof}, TDMA gives {tdma.sum_dof}")


CHECKS = {
    "tdma": check_tdma,
    "canonical": check_canonical,
    "census": check_bound,
    "fixed": check_bound,
    "certified": check_bound,
    "chordal": check_chordal,
    "converse": check_converse,
    "lin-eval": check_lin_eval,
    "lemma1": check_lemma1,
    "embed": check_embed,
}


def check_all(done, ctx: CheckContext) -> list[str | None]:
    """Check (request, exit code, output) triples; returns one failure reason
    or None per triple.  TDMA searches go first so bounds can be compared
    with them."""
    reasons: list[str | None] = [None] * len(done)
    order = sorted(range(len(done)), key=lambda k: done[k][0].kind != "tdma")
    for k in order:
        req, code, output = done[k]
        if code != 0:
            reasons[k] = f"exit code {code}"
            continue
        try:
            CHECKS[req.kind](req, output, ctx)
        except Exception as exc:  # any contradiction or unparsable output fails the request
            reasons[k] = f"{type(exc).__name__}: {exc}"
    return reasons


def selftest(run_cli) -> list[str]:
    """Feed corrupted outputs through check_all; returns the problems found.

    run_cli(request) must return (exit code, output).  Each genuine output
    has to pass, and each corruption has to be failed for the reason its
    case names, so every comparison is shown to fire on its own.  Most
    corruptions stay self-consistent (a schedule that serves what its
    result claims, a report whose deficiency is s - r) so that the earlier
    checks let them through.
    """
    def bound_req(K, L):
        return cli_request("census", "demand-bound", CYCLIC, K, L)

    def drop_weight(doc):
        doc["bound"]["certificate"].pop()

    def cyclic_subset(doc):
        # one subset holding every user, weighted to the full value: it still
        # passes verify_certificate, but the demand graph has a cycle on it
        doc["bound"]["certificate"] = [[list(range(1, 7)), doc["bound"]["value"]]]

    def drop_receiver(doc):
        # serve one receiver fewer and claim one entry's fraction less, so
        # the schedule stays valid and matches its result
        entry = doc["schedule"]["entries"][0]
        entry["servers"].pop()
        value = (serialize.parse_fraction(doc["result"]["sum_dof"])
                 - serialize.parse_fraction(entry["fraction"]))
        doc["result"]["sum_dof"] = serialize.fraction_str(value)

    def serve_extra_receiver(doc):
        # serve one more receiver from its carrier and claim it, the reverse
        # of drop_receiver
        entry = doc["schedule"]["entries"][0]
        served = {i for i, _ in entry["servers"]}
        i = min(set(range(1, doc["K"] + 1)) - served)
        carrier = doc["assignment"]["transmit_sets"][i - 1][0]
        entry["servers"] = sorted(entry["servers"] + [[i, carrier]])
        value = (serialize.parse_fraction(doc["result"]["sum_dof"])
                 + serialize.parse_fraction(entry["fraction"]))
        doc["result"]["sum_dof"] = serialize.fraction_str(value)

    def another_assignment(doc):
        # receiver i served by transmitter i - 1 instead of i
        doc["bound"]["assignment"]["transmit_sets"] = [[6]] + [[i] for i in range(1, 6)]

    def not_chordal(doc):
        doc["chordal_bipartite"] = False

    def converse_above_wall(text):
        lines = text.splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[4] = "5/1"
        lines[2] = ",".join(fields)
        return "".join(lines)

    def converse_not_reconstructable(text):
        lines = text.splitlines(keepends=True)
        fields = lines[2].rstrip("\n").split(",")
        fields[6:9] = [fields[5], "0", "False"]  # r = s, deficiency 0
        lines[2] = ",".join(fields) + "\n"
        return "".join(lines)

    def lin_eval_above_wall(doc):
        n = doc["scheme"]["n"]
        doc["result"]["trial_totals"] = [4 * n + 1] * len(doc["result"]["trial_totals"])
        doc["result"]["sum_dof"] = serialize.fraction_str(Fraction(4 * n + 1, n))

    def lemma1_not_reconstructable(doc):
        doc.update(r=doc["s"], deficiency=0, reconstructable=False)

    def embed_off(output):
        assignment, schedule, tdma, simulated = output
        return assignment, schedule, tdma, replace(simulated, sum_dof=simulated.sum_dof - 1)

    def json_mutation(mutate):
        def apply(text):
            doc = serialize.loads(text)
            mutate(doc)
            return serialize.dumps(doc)
        return apply

    def output_of(req):
        return lambda _: run_cli(req)[1]

    tdma_req = cli_request("tdma", "tdma-search", CYCLIC, 8, 2)
    canonical_req = cli_request("canonical", "tdma-canonical", CYCLIC, 8, 2)
    converse_req = cli_request("converse", "converse-sample", CYCLIC, 8, 2, "--trials", "1",
                               "--realizations", "1", "--seed", "3", fmt=None,
                               trials=1, realizations=1)
    cases = [
        ("certificate with one weight removed", bound_req(6, 1), json_mutation(drop_weight),
         "certificate does not prove the bound"),
        ("certificate subset with a cycle", bound_req(6, 1), json_mutation(cyclic_subset),
         "has a cycle"),
        # the genuine bound of cyclic K=6 L=2 (3) answering a request for L=1,
        # whose TDMA optimum is 4: its certificate still covers all six users
        ("bound below the TDMA value", bound_req(6, 1), output_of(bound_req(6, 2)),
         "below the TDMA value"),
        ("bound for another assignment",
         cli_request("fixed", "demand-bound", CYCLIC, 6, 1, "--assignment", "1,2,3,4,5,6",
                     carriers=[1, 2, 3, 4, 5, 6]),
         json_mutation(another_assignment), "bound is for another assignment"),
        ("TDMA value off by one", tdma_req, json_mutation(drop_receiver),
         "differs from the cyclic optimum"),
        ("canonical value below the optimum", canonical_req, json_mutation(drop_receiver),
         "misses the optimum"),
        # no valid schedule beats the optimum, so re-validation is what catches this
        ("canonical value above the optimum", canonical_req,
         json_mutation(serve_extra_receiver), "not schedulable"),
        ("truncated topology reported not chordal",
         cli_request("chordal", "topology", TRUNCATED, 12, 2, "--chordal"),
         json_mutation(not_chordal), "not reported chordal"),
        ("converse trial above K/2", converse_req, converse_above_wall, "above K/2"),
        ("zero-deficiency converse trial that does not reconstruct", converse_req,
         converse_not_reconstructable, "zero-deficiency trial does not reconstruct"),
        ("lin-eval sum DoF above K/2",
         cli_request("lin-eval", "lin-eval", CYCLIC, 8, 2, "--n", "2", "--trials", "2",
                     "--seed", "3", n=2, trials=2), json_mutation(lin_eval_above_wall),
         "above K/2"),
        ("zero-deficiency lemma1 report that does not reconstruct",
         cli_request("lemma1", "lemma1", CYCLIC, 8, 2, "--n", "2", "--seed", "3"),
         json_mutation(lemma1_not_reconstructable), "does not reconstruct"),
        ("embedded schedule simulated one below the TDMA optimum",
         Request(kind="embed", mode=CYCLIC, K=8, L=2, params={"seed": 3, "trials": 2}),
         embed_off, "embedded schedule simulates to"),
    ]
    problems = []
    for name, req, corrupt, expected in cases:
        code, output = run_cli(req)
        genuine, corrupted = check_all([(req, code, output), (req, code, corrupt(output))],
                                       CheckContext())
        if genuine is not None:
            problems.append(f"{name}: the genuine output failed ({genuine})")
        if corrupted is None:
            problems.append(f"{name}: the corrupted output was not counted as failed")
        elif expected not in corrupted:
            problems.append(f"{name}: failed for another reason than {expected!r} ({corrupted})")
    return problems
