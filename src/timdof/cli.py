"""Command-line front end: reproducible experiments over the analysis modules.

Every command is deterministic given its flags; randomized commands require
--seed and stamp their artifacts with a header line recording the seed and
toolkit version.  Exact rationals are always printed as "p/q" strings so
tightness checks reduce to string equality; --decimal appends a float
column for plotting.  Exit codes: 0 success, 2 usage, 3 validation
failure, 4 resource limit, 5 instability escalated by --strict, 6 an
internal consistency check failed (a bug, not a bad input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, demand_graph, linear_sim, schemes, serialize, topology
from .errors import InvalidParameterError, ResourceLimitError

OUTPUT_DIR_ENV = "TIMDOF_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
EXIT_UNSTABLE = 5
EXIT_INTERNAL = 6

RANDOMIZED_COMMANDS = ("lin-eval", "converse-sample", "lemma1")

SCHEME_COLUMNS = ("K", "L", "mode", "M", "sum_dof_num", "sum_dof_den", "per_user")
SIM_COLUMNS = ("K", "L", "n", "trial", "sum_dof", "s", "r", "deficiency", "reconstructable")


@dataclass
class ExperimentConfig:
    command: str
    K: int | None = None
    L: int | None = None
    mode: str = topology.CYCLIC
    M: int = 1
    n: int | None = None
    trials: int | None = None
    realizations: int = 3
    n_max: int = 3
    seed: int | None = None
    out: str | None = None
    fmt: str = "csv"
    decimal: bool = False
    strict: bool = False
    density: float = 1.0
    coherence: str = linear_sim.TIME_VARYING
    cooperation: str = "full"
    receivers: tuple[int, ...] | None = None
    carriers: tuple[int, ...] | None = None
    chordal: bool = False
    L_values: tuple[int, ...] = field(default_factory=tuple)
    K_multiple: int = 2


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return (int(text),)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="timdof",
        description="DoF analysis for locally connected interference networks without CSIT")
    parser.add_argument("--version", action="version", version=f"timdof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=True, out=True):
        p.add_argument("--K", type=int, required=True, help="number of transmitter-receiver pairs")
        p.add_argument("--L", type=int, required=True, help="connectivity parameter")
        if mode:
            p.add_argument("--mode", choices=topology.GENERATED_MODES, default=topology.CYCLIC)
        if out:
            p.add_argument("--out", help=f"output path (relative paths resolve under ${OUTPUT_DIR_ENV})")
            p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="csv")
            p.add_argument("--decimal", action="store_true", help="append float columns for plotting")

    p = sub.add_parser("topology", help="emit a topology document, optionally with a chordality check")
    common(p)
    p.add_argument("--chordal", action="store_true", help="include the chordal-bipartite verdict")

    p = sub.add_parser("tdma-search", help="exact optimal TDMA over assignments and schedules")
    common(p)
    p.add_argument("--M", type=int, default=1, help="cooperation budget (result is budget-independent)")

    p = sub.add_parser("tdma-canonical", help="closed-form two-per-block TDMA pattern")
    common(p)

    p = sub.add_parser("demand-bound", help="exact LP outer bound over demand-graph acyclic subsets")
    common(p)
    p.add_argument("--assignment", type=_parse_int_list, dest="carriers", metavar="T1,T2,...",
                   help="fixed single-transmitter assignment; omit to maximize over assignments")

    p = sub.add_parser("lin-eval", help="evaluate a random linear cooperation scheme by generic rank")
    common(p)
    p.add_argument("--n", type=int, required=True, help="number of slots")
    p.add_argument("--trials", type=int, default=3, help="channel redraws")
    p.add_argument("--seed", type=int, help="required: base seed")
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--cooperation", choices=("full", "single"), default="full")
    p.add_argument("--coherence", choices=linear_sim.COHERENCE_MODES,
                   default=linear_sim.TIME_VARYING)
    p.add_argument("--strict", action="store_true", help="escalate instability to exit code 5")

    p = sub.add_parser("converse-sample",
                       help="stress the sum-DoF converse with random full-cooperation schemes")
    common(p)
    p.add_argument("--trials", type=int, required=True, help="number of random schemes")
    p.add_argument("--seed", type=int, help="required: base seed")
    p.add_argument("--realizations", type=int, default=3, help="channel redraws per scheme")
    p.add_argument("--n-max", type=int, dest="n_max", default=3, help="slot counts cycle over 1..n_max")
    p.add_argument("--B", type=_parse_int_list, dest="receivers", metavar="I1,I2,...",
                   help="receiver set for the reconstruction check (default: even indices)")
    p.add_argument("--density", type=float, default=1.0,
                   help="probability that each message is active in a sampled scheme")
    p.add_argument("--strict", action="store_true", help="escalate instability to exit code 5")

    p = sub.add_parser("lemma1", help="reconstruction converse report for one scheme and realization")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, help="required: base seed")
    p.add_argument("--B", type=_parse_int_list, dest="receivers", metavar="I1,I2,...",
                   help="receiver set (default: even indices)")
    p.add_argument("--cooperation", choices=("full", "single"), default="full")
    p.add_argument("--density", type=float, default=1.0)

    p = sub.add_parser("sweep", help="per-user DoF table over L with K a multiple of L+2")
    p.add_argument("--L", type=_parse_range, dest="L_values", required=True, metavar="LO..HI")
    p.add_argument("--K-multiple", type=int, dest="K_multiple", default=2,
                   help="K = multiple * (L+2) per L, cyclic mode")
    p.add_argument("--M", type=int, default=1)
    p.add_argument("--out", help=f"output path (relative paths resolve under ${OUTPUT_DIR_ENV})")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="csv")
    p.add_argument("--decimal", action="store_true")
    return parser


def parse_args(argv) -> ExperimentConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command in RANDOMIZED_COMMANDS and ns.seed is None:
        parser.error(f"--seed is mandatory for the randomized command {ns.command!r}")
    fields = {k: v for k, v in vars(ns).items() if v is not None}
    return ExperimentConfig(**fields)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _header_line(seed: int) -> str:
    return f"# timdof {__version__} seed={seed}\n"


def _csv_text(columns, rows, header: str | None = None) -> str:
    buf = io.StringIO()
    if header:
        buf.write(header)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _scheme_row(cfg: ExperimentConfig, result, decimal_cols: bool):
    row = [cfg.K, cfg.L, cfg.mode, cfg.M,
           result.sum_dof.numerator, result.sum_dof.denominator,
           serialize.fraction_str(result.per_user)]
    if decimal_cols:
        row.append(repr(float(result.per_user)))
    return row


def _scheme_csv(cfg: ExperimentConfig, result) -> str:
    columns = list(SCHEME_COLUMNS) + (["per_user_decimal"] if cfg.decimal else [])
    return _csv_text(columns, [_scheme_row(cfg, result, cfg.decimal)])


def _emit_scheme(cfg: ExperimentConfig, result, M: int = 1, **parts) -> int:
    """The scheme-result artifact: a JSON document with the given parts, or one CSV row."""
    if cfg.fmt == "json":
        doc = {"command": cfg.command, "K": cfg.K, "L": cfg.L, "mode": cfg.mode, "M": M,
               "result": serialize.dof_result_to_dict(result), **parts}
        _emit(serialize.dumps(doc), _resolve_out(cfg.out))
    else:
        _emit(_scheme_csv(cfg, result), _resolve_out(cfg.out))
    return EXIT_OK


def _run_topology(cfg: ExperimentConfig) -> int:
    t = topology.make_locally_connected(cfg.K, cfg.L, cfg.mode)
    doc = serialize.topology_to_dict(t)
    if cfg.chordal:
        verdict = topology.is_chordal_bipartite(t)
        doc["chordal_bipartite"] = "inconclusive" if verdict is None else verdict
    _emit(serialize.dumps(doc), _resolve_out(cfg.out))
    return EXIT_OK


def _run_tdma_search(cfg: ExperimentConfig) -> int:
    t = topology.make_locally_connected(cfg.K, cfg.L, cfg.mode)
    assignment, schedule, result = schemes.optimal_tdma(t, M=cfg.M)
    return _emit_scheme(cfg, result, M=cfg.M,
                        assignment=serialize.assignment_to_dict(assignment),
                        schedule=serialize.schedule_to_dict(schedule))


def _run_tdma_canonical(cfg: ExperimentConfig) -> int:
    t = topology.make_locally_connected(cfg.K, cfg.L, cfg.mode)
    assignment, schedule = schemes.canonical_tdma(t)
    result = schemes.schedule_dof(schedule, t, assignment, method=schemes.METHOD_CANONICAL)
    return _emit_scheme(cfg, result,
                        assignment=serialize.assignment_to_dict(assignment),
                        schedule=serialize.schedule_to_dict(schedule))


def _run_demand_bound(cfg: ExperimentConfig) -> int:
    t = topology.make_locally_connected(cfg.K, cfg.L, cfg.mode)
    if cfg.carriers is not None:
        a = schemes.singleton_assignment(cfg.carriers)
        bound = demand_graph.dof_upper_bound_lp(demand_graph.build_demand_graph(t, a))
    else:
        bound = demand_graph.best_assignment_upper_bound(t)
    result = schemes.DofResult(sum_dof=bound.value, K=cfg.K, method=schemes.METHOD_LP_BOUND)
    return _emit_scheme(cfg, result, bound=serialize.dof_bound_to_dict(bound))


def _build_configured_assignment(cfg: ExperimentConfig, t) -> schemes.MessageAssignment:
    if cfg.cooperation == "full":
        return linear_sim.full_cooperation_assignment(t.K)
    return schemes.singleton_assignment(range(1, t.K + 1), budget=1)


def _default_receivers(cfg: ExperimentConfig) -> tuple[int, ...]:
    if cfg.receivers is not None:
        return cfg.receivers
    return tuple(range(2, cfg.K + 1, 2))


def _sim_row(cfg: ExperimentConfig, n, trial, record):
    report = record.report
    return [cfg.K, cfg.L, n, trial, serialize.fraction_str(Fraction(record.total, n)),
            report.s, report.r, report.deficiency, report.reconstructable]


def _require_positive(**values) -> None:
    for name, value in values.items():
        if value < 1:
            flag = "--" + name.replace("_", "-")
            raise InvalidParameterError(f"{flag} must be at least 1, got {value}")


def _run_lin_eval(cfg: ExperimentConfig) -> int:
    _require_positive(trials=cfg.trials)
    t = topology.make_locally_connected(cfg.K, cfg.L, cfg.mode)
    a = _build_configured_assignment(cfg, t)
    scheme = linear_sim.random_scheme(t, a, cfg.n, cfg.density, seed=cfg.seed)
    # only the CSV rows carry the reconstruction report
    receivers = _default_receivers(cfg) if cfg.fmt == "csv" else None
    seeds = range(cfg.seed + 10 ** 6, cfg.seed + 10 ** 6 + cfg.trials)
    records = list(linear_sim.channel_trials(scheme, t, seeds, cfg.coherence, receivers))
    result = linear_sim.dof_from_trials(scheme, records)
    if cfg.fmt == "json":
        doc = {
            "command": "lin-eval", "K": cfg.K, "L": cfg.L, "mode": cfg.mode,
            "seed": cfg.seed, "toolkit_version": __version__,
            "scheme": serialize.scheme_to_dict(scheme),
            "result": serialize.dof_result_to_dict(result),
        }
        _emit(serialize.dumps(doc), _resolve_out(cfg.out))
    else:
        rows = [_sim_row(cfg, cfg.n, trial, record) for trial, record in enumerate(records)]
        _emit(_csv_text(SIM_COLUMNS, rows, _header_line(cfg.seed)), _resolve_out(cfg.out))
    if result.unstable:
        print(f"instability: disagreement rate {result.disagreement_rate} above 1%", file=sys.stderr)
        if cfg.strict:
            return EXIT_UNSTABLE
    return EXIT_OK


def _run_converse_sample(cfg: ExperimentConfig) -> int:
    if cfg.fmt != "csv":
        raise InvalidParameterError("converse-sample writes CSV only")
    _require_positive(trials=cfg.trials, realizations=cfg.realizations, n_max=cfg.n_max)
    t = topology.make_locally_connected(cfg.K, cfg.L, cfg.mode)
    a = linear_sim.full_cooperation_assignment(t.K)
    receivers = _default_receivers(cfg)
    wall = Fraction(cfg.K, 2)
    rows = []
    unstable_schemes = 0
    above_wall = 0
    worst = Fraction(0)
    for trial in range(cfg.trials):
        n = 1 + trial % cfg.n_max
        scheme = linear_sim.random_scheme(t, a, n, cfg.density, seed=cfg.seed + trial)
        base = cfg.seed + 10 ** 6 + trial * cfg.realizations
        records = list(linear_sim.channel_trials(
            scheme, t, range(base, base + cfg.realizations), receivers=receivers))
        for record in records:
            sum_dof = Fraction(record.total, n)
            worst = max(worst, sum_dof)
            above_wall += sum_dof > wall
            rows.append(_sim_row(cfg, n, trial, record))
        unstable_schemes += linear_sim.dof_from_trials(scheme, records).unstable
    _emit(_csv_text(SIM_COLUMNS, rows, _header_line(cfg.seed)), _resolve_out(cfg.out))
    # the K/2 wall is the converse for full cooperation at L = 2 only
    wall_note = f" (K/2 wall {wall}: {above_wall} draws above it)" if cfg.L == 2 else ""
    print(f"max sum DoF over {cfg.trials} schemes: {worst}{wall_note}; "
          f"unstable schemes: {unstable_schemes}", file=sys.stderr)
    if unstable_schemes and cfg.strict:
        return EXIT_UNSTABLE
    return EXIT_OK


def _run_lemma1(cfg: ExperimentConfig) -> int:
    t = topology.make_locally_connected(cfg.K, cfg.L, cfg.mode)
    a = _build_configured_assignment(cfg, t)
    scheme = linear_sim.random_scheme(t, a, cfg.n, cfg.density, seed=cfg.seed)
    # the JSON report needs no decodability totals
    (record,) = linear_sim.channel_trials(scheme, t, [cfg.seed + 10 ** 6],
                                          receivers=_default_receivers(cfg),
                                          totals=cfg.fmt == "csv")
    if cfg.fmt == "json":
        doc = serialize.report_to_dict(record.report)
        doc["seed"] = cfg.seed
        doc["toolkit_version"] = __version__
        _emit(serialize.dumps(doc), _resolve_out(cfg.out))
    else:
        rows = [_sim_row(cfg, cfg.n, 0, record)]
        _emit(_csv_text(SIM_COLUMNS, rows, _header_line(cfg.seed)), _resolve_out(cfg.out))
    return EXIT_OK


def _run_sweep(cfg: ExperimentConfig) -> int:
    if not cfg.L_values:
        raise InvalidParameterError("--L range is empty")
    columns = list(SCHEME_COLUMNS) + (["per_user_decimal"] if cfg.decimal else [])
    rows = []
    for L in cfg.L_values:
        K = cfg.K_multiple * (L + 2)
        t = topology.make_locally_connected(K, L, topology.CYCLIC)
        _, _, result = schemes.optimal_tdma(t, M=cfg.M)
        ca, cs = schemes.canonical_tdma(t)
        canonical = schemes.schedule_dof(cs, t, ca, method=schemes.METHOD_CANONICAL)
        bound = demand_graph.best_assignment_upper_bound(t)
        print(f"L={L} K={K} optimal={serialize.fraction_str(result.sum_dof)} "
              f"canonical={serialize.fraction_str(canonical.sum_dof)} "
              f"bound={serialize.fraction_str(bound.value)}", file=sys.stderr)
        sub_cfg = ExperimentConfig(command="sweep", K=K, L=L, mode=topology.CYCLIC, M=cfg.M,
                                   decimal=cfg.decimal)
        rows.append(_scheme_row(sub_cfg, result, cfg.decimal))
    _emit(_csv_text(columns, rows), _resolve_out(cfg.out))
    return EXIT_OK


_HANDLERS = {
    "topology": _run_topology,
    "tdma-search": _run_tdma_search,
    "tdma-canonical": _run_tdma_canonical,
    "demand-bound": _run_demand_bound,
    "lin-eval": _run_lin_eval,
    "converse-sample": _run_converse_sample,
    "lemma1": _run_lemma1,
    "sweep": _run_sweep,
}


def run(config: ExperimentConfig) -> int:
    """Dispatch a parsed config; returns the process exit code."""
    try:
        return _HANDLERS[config.command](config)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
