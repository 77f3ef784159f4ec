"""Seeded request lists for the three benchmark workloads.

A request is one analysis a researcher would run: an in-process call to
``timdof.cli.main(argv)``, or for ``embed`` a short library pipeline.
A workload is a fixed multiset of requests per round; the seed only
orders each round and picks the fixed assignments and the scheme and
channel seeds, so every run of a workload does the same kinds of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

CYCLIC, TRUNCATED = "cyclic", "truncated"
MODES = (TRUNCATED, CYCLIC)

# Mirrors the program's K <= 12 demand-LP cap.  Census instances also keep
# to at most 1024 assignments, so one round of the census stays a few
# seconds long.
CENSUS_K_MAX = 12
CENSUS_SPACE_MAX = 1024
FIXED_PER_INSTANCE = 2

# exact-large: certified demand bounds stay above the enumeration limit.
ENUMERATION_LIMIT = 20000
CERTIFIED_K_TARGETS = (30, 60, 90, 120, 150)
SEARCH_K = range(12, 17)
CANONICAL_K = (256, 512)
CANONICAL_L = range(1, 5)

SIM_L = 2  # the K/2 converse for full cooperation is stated at cyclic L = 2
CONVERSE_K = 8
CONVERSE_SCHEMES = 3
CONVERSE_REALIZATIONS = 3
CONVERSE_REQUESTS = 12
LIN_EVAL_K = (8, 16, 24, 32)
LIN_EVAL_N = (2, 4, 8)
LIN_EVAL_TRIALS = 2
LEMMA1_K = (8, 16, 32)
EMBED_K = (8, 12, 16)
EMBED_L = (1, 2, 3)
EMBED_TRIALS = 2


@dataclass
class Request:
    """One analysis.  argv is None for library pipelines, which use `kind`."""

    kind: str
    mode: str
    K: int
    L: int
    argv: tuple[str, ...] | None = None
    params: dict = field(default_factory=dict)


def cli_request(kind, command, mode, K, L, *extra, fmt="json", **params) -> Request:
    argv = (command, "--K", str(K), "--L", str(L), "--mode", mode) + extra
    if fmt is not None:
        argv += ("--format", fmt)
    return Request(kind=kind, mode=mode, K=K, L=L, argv=argv, params=params)


def assignment_space(mode: str, K: int, L: int) -> int:
    """Number of single-transmitter assignments: one heard transmitter per receiver."""
    if mode == CYCLIC:
        return (L + 1) ** K
    return math.prod(min(i, L + 1) for i in range(1, K + 1))


def census_grid() -> list[tuple[str, int, int]]:
    return [(mode, K, L)
            for mode in MODES
            for K in range(2, CENSUS_K_MAX + 1)
            for L in range(1, K)
            if assignment_space(mode, K, L) <= CENSUS_SPACE_MAX]


def _random_carriers(rng: random.Random, mode: str, K: int, L: int) -> list[int]:
    # receiver i hears transmitters i-L..i (wrapping when cyclic, clipped when truncated)
    if mode == CYCLIC:
        return [(i - 1 - rng.randint(0, L)) % K + 1 for i in range(1, K + 1)]
    return [rng.randint(max(1, i - L), i) for i in range(1, K + 1)]


def _exact_small(rng: random.Random) -> list[Request]:
    out = []
    for mode, K, L in census_grid():
        out.append(cli_request("census", "demand-bound", mode, K, L))
        out.append(cli_request("tdma", "tdma-search", mode, K, L))
        for _ in range(FIXED_PER_INSTANCE):
            carriers = _random_carriers(rng, mode, K, L)
            out.append(cli_request("fixed", "demand-bound", mode, K, L, "--assignment",
                                   ",".join(map(str, carriers)), carriers=carriers))
    return out


def certified_instances() -> list[tuple[int, int]]:
    out = []
    for L in range(1, 5):
        for target in CERTIFIED_K_TARGETS:
            K = (L + 2) * round(target / (L + 2))
            if assignment_space(CYCLIC, K, L) <= ENUMERATION_LIMIT:
                raise ValueError(f"cyclic K={K} L={L} would be enumerated, not certified")
            out.append((K, L))
    return out


def _exact_large(rng: random.Random) -> list[Request]:
    out = [cli_request("certified", "demand-bound", CYCLIC, K, L)
           for K, L in certified_instances()]
    for mode in MODES:
        for K in SEARCH_K:
            for L in range(1, 5):
                out.append(cli_request("tdma", "tdma-search", mode, K, L))
    for K in SEARCH_K:
        for L in range(2, 5):
            out.append(cli_request("chordal", "topology", TRUNCATED, K, L, "--chordal"))
    for K in CANONICAL_K:
        for L in CANONICAL_L:
            out.append(cli_request("canonical", "tdma-canonical", CYCLIC, K, L))
    return out


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(10 ** 9))


def _simulation(rng: random.Random) -> list[Request]:
    out = []
    for _ in range(CONVERSE_REQUESTS):
        out.append(cli_request("converse", "converse-sample", CYCLIC, CONVERSE_K, SIM_L,
                               "--trials", str(CONVERSE_SCHEMES),
                               "--realizations", str(CONVERSE_REALIZATIONS),
                               "--seed", _seed(rng), fmt=None,
                               trials=CONVERSE_SCHEMES, realizations=CONVERSE_REALIZATIONS))
    for K in LIN_EVAL_K:
        for n in LIN_EVAL_N:
            out.append(cli_request("lin-eval", "lin-eval", CYCLIC, K, SIM_L, "--n", str(n),
                                   "--trials", str(LIN_EVAL_TRIALS), "--seed", _seed(rng),
                                   n=n, trials=LIN_EVAL_TRIALS))
    for K in LEMMA1_K:
        for n in LIN_EVAL_N:
            out.append(cli_request("lemma1", "lemma1", CYCLIC, K, SIM_L, "--n", str(n),
                                   "--seed", _seed(rng)))
    for K in EMBED_K:
        for L in EMBED_L:
            out.append(Request(kind="embed", mode=CYCLIC, K=K, L=L,
                               params={"seed": rng.randrange(10 ** 9), "trials": EMBED_TRIALS}))
    return out


WORKLOADS = {
    "exact-small": _exact_small,
    "exact-large": _exact_large,
    "simulation": _simulation,
}


def make_round(workload: str, rng: random.Random) -> list[Request]:
    """One round of the workload in seeded order."""
    requests = WORKLOADS[workload](rng)
    rng.shuffle(requests)
    return requests


def warmup_requests(workload: str, rng: random.Random) -> list[Request]:
    """The cheapest request of each kind; certified bounds once per L, since
    the tile lemma behind them is cached per L."""
    chosen: dict[tuple, Request] = {}
    for req in WORKLOADS[workload](rng):
        key = (req.kind, req.L) if req.kind == "certified" else (req.kind,)
        best = chosen.get(key)
        if best is None or (req.K, req.L) < (best.K, best.L):
            chosen[key] = req
    return list(chosen.values())
