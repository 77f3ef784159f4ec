"""Serialization to structured text with versioned schema identifiers.

Exact rationals render as "p/q" strings (never decimals) so downstream
equality checks are string equality; complex numbers render as [re, im]
pairs.  Every document carries a schema id and round-trips through its
from_dict counterpart.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .demand_graph import DofBound
from .errors import InvalidInputError
from .linear_sim import ChannelRealization, LinearScheme, ReconstructionReport
from .schemes import DofResult, MessageAssignment, ServedSet, TdmaSchedule
from .topology import EXPLICIT, Topology, explicit_topology, make_locally_connected

TOPOLOGY_SCHEMA = "timdof/topology/v1"
ASSIGNMENT_SCHEMA = "timdof/assignment/v1"
SCHEDULE_SCHEMA = "timdof/schedule/v1"
DOF_RESULT_SCHEMA = "timdof/dof-result/v1"
DOF_BOUND_SCHEMA = "timdof/dof-bound/v1"
SCHEME_SCHEMA = "timdof/scheme/v1"
REALIZATION_SCHEMA = "timdof/realization/v1"
REPORT_SCHEMA = "timdof/reconstruction-report/v1"


def fraction_str(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Parse a "p/q" string; bare integers are tolerated on input."""
    try:
        num, _, den = text.strip().partition("/")
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"malformed rational {text!r}, expected 'p/q'") from exc


def _expect_schema(doc: dict, schema: str) -> None:
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise InvalidInputError(f"expected schema {schema!r}, got {doc.get('schema') if isinstance(doc, dict) else doc!r}")


def _complex_matrix_out(mat: np.ndarray) -> list:
    return [list(map(list, zip(re, im))) for re, im in zip(mat.real.tolist(), mat.imag.tolist())]


def _complex_matrix_in(rows, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise InvalidInputError(f"complex matrix has wrong shape, expected {shape}")
    for r, row in enumerate(rows):
        for c, (re, im) in enumerate(row):
            out[r, c] = complex(re, im)
    return out


def topology_to_dict(t: Topology) -> dict:
    doc = {"schema": TOPOLOGY_SCHEMA, "K": t.K, "L": t.L, "mode": t.mode}
    if t.mode == EXPLICIT:
        doc["explicit_edges"] = sorted([i, j] for i, j in t.edges)
    return doc


def topology_from_dict(doc: dict) -> Topology:
    _expect_schema(doc, TOPOLOGY_SCHEMA)
    if doc["mode"] == EXPLICIT:
        return explicit_topology(doc["K"], [tuple(e) for e in doc["explicit_edges"]])
    return make_locally_connected(doc["K"], doc["L"], doc["mode"])


def assignment_to_dict(a: MessageAssignment) -> dict:
    return {
        "schema": ASSIGNMENT_SCHEMA,
        "transmit_sets": [sorted(ts) for ts in a.transmit_sets],
        "budget": "unbounded" if a.budget is None else a.budget,
    }


def assignment_from_dict(doc: dict) -> MessageAssignment:
    _expect_schema(doc, ASSIGNMENT_SCHEMA)
    budget = doc["budget"]
    return MessageAssignment(
        transmit_sets=tuple(frozenset(ts) for ts in doc["transmit_sets"]),
        budget=None if budget == "unbounded" else budget,
    )


def schedule_to_dict(sched: TdmaSchedule) -> dict:
    return {
        "schema": SCHEDULE_SCHEMA,
        "K": sched.K,
        "entries": [
            {"servers": [list(pair) for pair in served.servers], "fraction": fraction_str(lam)}
            for served, lam in sched.entries
        ],
    }


def schedule_from_dict(doc: dict) -> TdmaSchedule:
    _expect_schema(doc, SCHEDULE_SCHEMA)
    entries = tuple(
        (ServedSet(servers=tuple(tuple(p) for p in e["servers"])), parse_fraction(e["fraction"]))
        for e in doc["entries"])
    return TdmaSchedule(K=doc["K"], entries=entries)


def dof_result_to_dict(res: DofResult) -> dict:
    doc = {
        "schema": DOF_RESULT_SCHEMA,
        "sum_dof": fraction_str(res.sum_dof),
        "per_user": fraction_str(res.per_user),
        "K": res.K,
        "method": res.method,
    }
    if res.trials is not None:
        doc["trials"] = res.trials
        doc["trial_totals"] = list(res.trial_totals)
        doc["disagreement_rate"] = fraction_str(res.disagreement_rate)
        doc["unstable"] = res.unstable
    return doc


def dof_result_from_dict(doc: dict) -> DofResult:
    _expect_schema(doc, DOF_RESULT_SCHEMA)
    extras = {}
    if "trials" in doc:
        extras = {
            "trials": doc["trials"],
            "trial_totals": tuple(doc["trial_totals"]),
            "disagreement_rate": parse_fraction(doc["disagreement_rate"]),
            "unstable": doc["unstable"],
        }
    return DofResult(
        sum_dof=parse_fraction(doc["sum_dof"]), K=doc["K"], method=doc["method"], **extras)


def dof_bound_to_dict(bound: DofBound) -> dict:
    return {
        "schema": DOF_BOUND_SCHEMA,
        "value": fraction_str(bound.value),
        "certificate": [[sorted(subset), fraction_str(w)] for subset, w in bound.certificate],
        "assignment": None if bound.assignment is None else assignment_to_dict(bound.assignment),
    }


def dof_bound_from_dict(doc: dict) -> DofBound:
    _expect_schema(doc, DOF_BOUND_SCHEMA)
    return DofBound(
        value=parse_fraction(doc["value"]),
        certificate=tuple((frozenset(sub), parse_fraction(w)) for sub, w in doc["certificate"]),
        assignment=None if doc["assignment"] is None else assignment_from_dict(doc["assignment"]),
    )


def scheme_to_dict(s: LinearScheme) -> dict:
    return {
        "schema": SCHEME_SCHEMA,
        "n": s.n,
        "assignment": assignment_to_dict(s.assignment),
        "symbol_counts": list(s.symbol_counts),
        "precoders": [
            {"transmitter": j, "message": i, "matrix": _complex_matrix_out(mat)}
            for (j, i), mat in sorted(s.precoders.items())
        ],
    }


def scheme_from_dict(doc: dict) -> LinearScheme:
    _expect_schema(doc, SCHEME_SCHEMA)
    n = doc["n"]
    counts = tuple(doc["symbol_counts"])
    precoders = {}
    for entry in doc["precoders"]:
        j, i = entry["transmitter"], entry["message"]
        precoders[(j, i)] = _complex_matrix_in(entry["matrix"], (n, counts[i - 1]))
    return LinearScheme(
        n=n, assignment=assignment_from_dict(doc["assignment"]),
        symbol_counts=counts, precoders=precoders)


def realization_to_dict(c: ChannelRealization) -> dict:
    return {
        "schema": REALIZATION_SCHEMA,
        "K": c.K,
        "n": c.n,
        "coherence": c.coherence,
        "h": [_complex_matrix_out(c.h[i]) for i in range(c.K)],
    }


def realization_from_dict(doc: dict) -> ChannelRealization:
    _expect_schema(doc, REALIZATION_SCHEMA)
    K, n = doc["K"], doc["n"]
    h = np.zeros((K, K, n), dtype=complex)
    for i in range(K):
        h[i] = _complex_matrix_in(doc["h"][i], (K, n))
    return ChannelRealization(K=K, n=n, coherence=doc["coherence"], h=h)


def report_to_dict(rep: ReconstructionReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "B": list(rep.B),
        "exclusive_transmitters": list(rep.exclusive_transmitters),
        "interfering_transmitters": list(rep.interfering_transmitters),
        "s": rep.s,
        "r": rep.r,
        "deficiency": rep.deficiency,
        "reconstructable": rep.reconstructable,
    }


def report_from_dict(doc: dict) -> ReconstructionReport:
    _expect_schema(doc, REPORT_SCHEMA)
    return ReconstructionReport(
        B=tuple(doc["B"]),
        exclusive_transmitters=tuple(doc["exclusive_transmitters"]),
        interfering_transmitters=tuple(doc["interfering_transmitters"]),
        s=doc["s"], r=doc["r"], deficiency=doc["deficiency"],
        reconstructable=doc["reconstructable"])


def dumps(doc: dict) -> str:
    """Deterministic rendering: sorted keys, two-space indent, trailing newline.

    The text equals json.dumps(doc, sort_keys=True, indent=2) + "\n", and
    unsupported values raise the same exceptions, but a list of plain
    numbers, or of lists of them such as a row of complex [re, im] pairs,
    is rendered in one join instead of one encoder step per number.
    """
    parts: list[str] = []
    _encode(doc, "\n", parts, set())
    parts.append("\n")
    return "".join(parts)


_PLAIN_NUMBERS = frozenset((int, float))
_LIST_TYPE = frozenset((list,))


def _scalar_text(o) -> str | None:
    """json's text of a str, None, bool, int or float; None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o in (math.inf, -math.inf):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    return None


def _number_array(o, inner: str) -> str | None:
    """The items of o joined, when they are plain numbers or non-empty lists
    of plain numbers; None for anything else.

    Plain numbers are exact ints and floats, whose repr is json's text, so a
    row of complex [re, im] pairs is rendered in one join.
    """
    sep = "," + inner
    if _PLAIN_NUMBERS.issuperset(map(type, o)):
        return sep.join(map(repr, o))
    if not (_LIST_TYPE.issuperset(map(type, o)) and all(o)
            and _PLAIN_NUMBERS.issuperset(map(type, chain.from_iterable(o)))):
        return None
    deeper = inner + "  "
    row_sep = "," + deeper
    return sep.join(["[" + deeper + row_sep.join(map(repr, row)) + inner + "]" for row in o])


def _encode(o, newline: str, parts: list, active: set) -> None:
    """Append the JSON text of o, whose enclosing lines are indented as in `newline`.

    `active` holds the ids of the containers being encoded, to report cycles.
    """
    text = _scalar_text(o)
    if text is not None:
        parts.append(text)
        return
    is_dict = isinstance(o, dict)
    if not (is_dict or isinstance(o, (list, tuple))):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    if not o:
        parts.append("{}" if is_dict else "[]")
        return
    inner = newline + "  "
    if not is_dict:
        text = _number_array(o, inner)
        # non-finite floats, the only numbers whose repr holds an "n", are
        # not written as json writes them, so they take the general route
        if text is not None and "n" not in text:
            parts += ("[" + inner, text, newline + "]")
            return
    if id(o) in active:
        raise ValueError("Circular reference detected")
    active.add(id(o))
    sep = ("{" if is_dict else "[") + inner
    if is_dict:
        for key, value in sorted(o.items()):
            # json writes a non-string key as the string of its value text
            key_text = _scalar_text(key)
            if key_text is None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            if not isinstance(key, str):
                key_text = '"' + key_text + '"'
            parts.append(sep + key_text + ": ")
            _encode(value, inner, parts, active)
            sep = "," + inner
    else:
        for value in o:
            parts.append(sep)
            _encode(value, inner, parts, active)
            sep = "," + inner
    parts.append(newline + ("}" if is_dict else "]"))
    active.discard(id(o))


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed document: {exc}") from exc
