"""Message assignments, fractional TDMA schedules, and exact TDMA search.

A TDMA scheme time-shares interference-free served sets: in each slot a
set of receivers is served, each by one transmitter that carries its
message, reaches it, and reaches no other served receiver.  Without
transmitter channel knowledge this orthogonality is what full-rate
one-shot decoding forces.  A fractional schedule's sum DoF is a convex
combination of served-set sizes, so one largest served set, given the
whole slot, is the exact TDMA optimum.

On the generated families a receiver is servable exactly when its served
neighbours lie at least L+2 apart, so `optimal_tdma` finds the largest
served set with a gap DP at any K.  Every other served-set question
(explicit topologies, fixed assignments with any number of carriers per
message) is one search: with the servers made part of the graph's nodes,
a served set is a clique over (receiver, carrier) pairs, and
Bron-Kerbosch lists them, capped at K <= TDMA_SEARCH_K_LIMIT.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidAssignmentError,
    InvalidParameterError,
    InvalidScheduleError,
    ResourceLimitError,
)
from .topology import CYCLIC, GENERATED_MODES, TRUNCATED, Topology, iter_bits

# Served-set enumeration is exponential in K; keep explicit-topology searches
# and fixed-assignment schedules at desk scale.
TDMA_SEARCH_K_LIMIT = 16

METHOD_TDMA_SEARCH = "tdma-search"
METHOD_CANONICAL = "canonical"
METHOD_LP_BOUND = "lp-bound"
METHOD_LINEAR_SIM = "linear-sim"


@dataclass(frozen=True)
class MessageAssignment:
    """Transmit sets per message: transmit_sets[i-1] holds message i's carriers.

    budget is the cooperation cap M (None means unbounded); every transmit
    set must be non-empty and no larger than the budget.
    """

    transmit_sets: tuple[frozenset[int], ...]
    budget: int | None = 1

    def __post_init__(self):
        if self.budget is not None and (
                not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget < 1):
            raise InvalidAssignmentError(f"budget must be a positive integer or None, got {self.budget!r}")
        K = len(self.transmit_sets)
        if K == 0:
            raise InvalidAssignmentError("assignment needs at least one message")
        for i, ts in enumerate(self.transmit_sets, start=1):
            if not ts:
                raise InvalidAssignmentError(f"transmit set of message {i} is empty")
            if self.budget is not None and len(ts) > self.budget:
                raise InvalidAssignmentError(
                    f"transmit set of message {i} has {len(ts)} transmitters, budget is {self.budget}")
            for j in ts:
                if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= K:
                    raise InvalidAssignmentError(f"transmitter {j!r} of message {i} outside 1..{K}")

    @property
    def K(self) -> int:
        return len(self.transmit_sets)

    def encoding(self) -> tuple[tuple[int, ...], ...]:
        """Sorted-tuple form used for deterministic tie-breaking."""
        return tuple(tuple(sorted(ts)) for ts in self.transmit_sets)


def singleton_assignment(carriers, budget: int | None = 1) -> MessageAssignment:
    """Assignment placing message i at the single transmitter carriers[i-1]."""
    return MessageAssignment(
        transmit_sets=tuple(frozenset((j,)) for j in carriers), budget=budget)


@dataclass(frozen=True)
class ServedSet:
    """One slot's served receivers with their serving transmitters.

    servers is a tuple of (receiver, transmitter) pairs, sorted by receiver;
    receivers are distinct.
    """

    servers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        receivers = [i for i, _ in self.servers]
        if len(set(receivers)) != len(receivers):
            raise InvalidScheduleError("a served set lists some receiver twice")
        if list(self.servers) != sorted(self.servers):
            raise InvalidScheduleError("servers must be sorted by receiver")

    @classmethod
    def from_map(cls, server_of: dict) -> "ServedSet":
        return cls(servers=tuple(sorted((int(i), int(j)) for i, j in server_of.items())))

    @property
    def served(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.servers)

    @property
    def server_of(self) -> dict[int, int]:
        return dict(self.servers)

    def __len__(self) -> int:
        return len(self.servers)


@dataclass(frozen=True)
class TdmaSchedule:
    """Fractional time-sharing over served sets: (ServedSet, fraction) entries."""

    K: int
    entries: tuple[tuple[ServedSet, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        for entry in self.entries:
            served_set, lam = entry
            if not isinstance(served_set, ServedSet):
                raise InvalidScheduleError(f"entry {entry!r} does not hold a ServedSet")
            lam = Fraction(lam)
            if not 0 < lam <= 1:
                raise InvalidScheduleError(f"time fraction {lam} outside (0, 1]")
            total += lam
            for i, j in served_set.servers:
                if not (1 <= i <= self.K and 1 <= j <= self.K):
                    raise InvalidScheduleError(f"server pair ({i},{j}) outside 1..{self.K}")
        if total > 1:
            raise InvalidScheduleError(f"time fractions sum to {total} > 1")

    def dof_vector(self) -> tuple[Fraction, ...]:
        """Per-message DoF: the time fraction during which each message is served."""
        d = [Fraction(0)] * self.K
        for served_set, lam in self.entries:
            for i, _ in served_set.servers:
                d[i - 1] += Fraction(lam)
        return tuple(d)


@dataclass(frozen=True)
class DofResult:
    """A sum-DoF value with its provenance.

    sum_dof is exact; simulation-derived results attach trial bookkeeping
    and an instability flag instead of silently averaging.
    """

    sum_dof: Fraction
    K: int
    method: str
    trials: int | None = None
    trial_totals: tuple[int, ...] | None = None
    disagreement_rate: Fraction | None = None
    unstable: bool = False

    def __post_init__(self):
        if not 0 <= self.sum_dof <= self.K:
            raise InvalidParameterError(f"sum DoF {self.sum_dof} outside [0, {self.K}]")

    @property
    def per_user(self) -> Fraction:
        return Fraction(self.sum_dof, self.K)


def is_schedulable(t: Topology, s: ServedSet) -> bool:
    """Check the three served-set conditions against a topology.

    Each server must carry its receiver within reach, no server may reach
    another served receiver, and no transmitter serves two messages at once.
    """
    pairs = s.servers
    transmitters = [j for _, j in pairs]
    if len(set(transmitters)) != len(transmitters):
        return False
    served = 0
    for i, j in pairs:
        if not t.connected(i, j):
            return False
        served |= 1 << (i - 1)
    return all(t.tx_masks[j - 1] & served == 1 << (i - 1) for i, j in pairs)


def validate_schedule(t: Topology, a: MessageAssignment | None, sched: TdmaSchedule) -> None:
    """Raise InvalidScheduleError unless every entry is genuinely servable."""
    if sched.K != t.K:
        raise InvalidScheduleError(f"schedule is over {sched.K} users, topology has {t.K}")
    if a is not None and a.K != t.K:
        raise InvalidScheduleError(f"assignment is over {a.K} users, topology has {t.K}")
    for served_set, _ in sched.entries:
        if a is not None:
            for i, j in served_set.servers:
                if j not in a.transmit_sets[i - 1]:
                    raise InvalidScheduleError(
                        f"receiver {i} served from transmitter {j}, not a carrier of its message")
        if not is_schedulable(t, served_set):
            raise InvalidScheduleError(f"served set {served_set.servers} is not schedulable")


def schedule_dof(sched: TdmaSchedule, t: Topology | None = None,
                 a: MessageAssignment | None = None, method: str = METHOD_TDMA_SEARCH) -> DofResult:
    """Sum DoF of a fractional schedule, exactly.

    When a topology (and optionally an assignment) is supplied the schedule
    is validated first and an invalid schedule raises InvalidScheduleError.
    """
    if t is not None:
        validate_schedule(t, a, sched)
    total = sum((Fraction(lam) * len(served_set) for served_set, lam in sched.entries), Fraction(0))
    return DofResult(sum_dof=total, K=sched.K, method=method)


def _served_candidates(t: Topology, j: int, mask: int, allowed_mask: int) -> int | None:
    """Smallest transmitter in allowed_mask serving receiver j alone within mask."""
    want = 1 << (j - 1)
    cand = t.rx_masks[j - 1] & allowed_mask
    for b in iter_bits(cand):
        if t.tx_masks[b] & mask == want:
            return b + 1
    return None


def canonical_tdma(t: Topology) -> tuple[MessageAssignment, TdmaSchedule]:
    """Closed-form one-shot pattern serving two receivers per L+2 consecutive users.

    For L = 2 this is the classical pattern: every even message rides its
    left neighbour transmitter and every other transmitter stays silent,
    serving floor(K/2) receivers in one shot.  For general L, each block of
    L+2 consecutive users serves its first user from its own transmitter
    and its last user from the block's second transmitter; partial tail
    blocks serve one extra user when the tail's coverage stays in range.
    """
    if t.mode not in GENERATED_MODES:
        raise InvalidParameterError("canonical pattern is defined for generated topologies only")
    K, L = t.K, t.L
    carriers = list(range(1, K + 1))  # default: own transmitter
    servers: dict[int, int] = {}
    if L == 2:
        for i in range(2, K + 1, 2):
            servers[i] = i - 1
        for i in range(1, K + 1):
            carriers[i - 1] = i - 1 if i > 1 else (K if t.mode == CYCLIC else 1)
    else:
        block = L + 2
        start = 1
        while start + block - 1 <= K:
            servers[start] = start
            servers[start + L + 1] = start + 1
            carriers[start + L] = start + 1
            start += block
        if start <= K:
            # tail shorter than a block: serve its first user unless the
            # coverage window would wrap onto the already-served user 1
            if t.mode == TRUNCATED or start + L <= K:
                servers[start] = start
    assignment = singleton_assignment(carriers, budget=1)
    schedule = TdmaSchedule(K=K, entries=((ServedSet.from_map(servers), Fraction(1)),))
    validate_schedule(t, assignment, schedule)
    return assignment, schedule


def maximal_servable_sets(t: Topology, a: MessageAssignment) -> tuple[ServedSet, ...]:
    """All inclusion-maximal served sets realizable under a fixed assignment.

    Once the servers are fixed every served-set condition is pairwise, so
    a served set with its servers is a clique in the graph whose nodes are
    the (receiver, carrier) pairs where the receiver hears the carrier:
    two nodes are adjacent when neither server reaches the other node's
    receiver.  Each server reaches its own receiver, so two nodes of one
    receiver, or of one transmitter, are never adjacent.  Bron-Kerbosch
    lists the maximal cliques, and since a maximal clique can cover fewer
    receivers than another, only the inclusion-maximal receiver sets are
    kept.  Each member is then served by the lowest carrier that reaches
    it and no other member.  TDMA_SEARCH_K_LIMIT is read at call time.
    """
    if t.K > TDMA_SEARCH_K_LIMIT:
        raise ResourceLimitError(
            f"served-set enumeration limited to K <= {TDMA_SEARCH_K_LIMIT}, got K={t.K}",
            limit=TDMA_SEARCH_K_LIMIT)
    if a.K != t.K:
        raise InvalidAssignmentError(f"assignment is over {a.K} users, topology has {t.K}")
    ts_masks = [sum(1 << (j - 1) for j in ts) for ts in a.transmit_sets]
    nodes = [(i, j + 1) for i, row in enumerate(t.rx_masks, start=1)
             for j in iter_bits(row & ts_masks[i - 1])]
    compat = [0] * (len(nodes) + 1)
    for (u, (i, j)), (v, (i2, j2)) in itertools.combinations(enumerate(nodes, start=1), 2):
        if not t.connected(i, j2) and not t.connected(i2, j):
            compat[u] |= 1 << (v - 1)
            compat[v] |= 1 << (u - 1)
    covered = {sum(1 << (nodes[v][0] - 1) for v in iter_bits(clique))
               for clique in _maximal_cliques(compat, (1 << len(nodes)) - 1)}
    masks: list[int] = []
    for m in sorted(covered, key=int.bit_count, reverse=True):
        # a strict superset is larger, so it is already kept if it is maximal
        if all(m & kept != m for kept in masks):
            masks.append(m)

    sets = []
    for mask in sorted(masks, key=lambda m: tuple(iter_bits(m))):
        server_map = {}
        for v in iter_bits(mask):
            server_map[v + 1] = _served_candidates(t, v + 1, mask, ts_masks[v])
        sets.append(ServedSet.from_map(server_map))
    return tuple(sets)


def _maximal_cliques(compat: list[int], vert_mask: int) -> list[int]:
    # Bron-Kerbosch with pivoting over bitmasks; compat is 1-indexed
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pool = p | x
        best, best_deg = (pool & -pool).bit_length(), -1
        for u in iter_bits(pool):
            deg = bin(p & compat[u + 1]).count("1")
            if deg > best_deg:
                best, best_deg = u + 1, deg
        for v in iter_bits(p & ~compat[best]):
            bit = 1 << v
            bk(r | bit, p & compat[v + 1], x & compat[v + 1])
            p &= ~bit
            x |= bit

    bk(0, vert_mask, 0)
    return out


def best_sum_schedule(t: Topology, a: MessageAssignment) -> tuple[TdmaSchedule, DofResult]:
    """Exact fractional-schedule optimum for a fixed assignment.

    max sum_k |S_k| lambda_k subject to sum lambda <= 1 is attained by
    giving the whole slot to a largest maximal served set, so no LP is
    solved: the first largest of `maximal_servable_sets`, in its order of
    ascending receiver tuples, takes the slot.
    """
    best = max(maximal_servable_sets(t, a), key=len)  # first of the largest
    entries = ((best, Fraction(1)),) if len(best) else ()
    sched = TdmaSchedule(K=t.K, entries=entries)
    validate_schedule(t, a, sched)
    return sched, DofResult(sum_dof=Fraction(len(best)), K=t.K, method=METHOD_TDMA_SEARCH)


def _reach(d: int, L: int) -> int:
    """How far past a served receiver its server reaches, with the previous one d back.

    The lowest usable server sits min(L, d-1) before the receiver, so its
    coverage window of L+1 ends max(0, L+1-d) past it.
    """
    return max(0, L + 1 - d)


def _gap_extras(left: int, right: int | None, L: int) -> tuple[int, int]:
    """Room an even and an odd count of served receivers need beyond whole pairs.

    The receivers follow a served receiver whose server reaches `left`
    past it.  Each of them needs its two gaps to sum to at least L+2, so k
    of them take (k // 2) * (L+2) positions plus the entry for k's parity;
    pairing the gaps from either end gives the matching lower bounds.
    With right=None the run ends free (the truncated chain), else on a
    closing receiver whose server reaches `right` back (the cyclic wrap
    onto receiver 1), and the room counts up to it.
    """
    if right is None:
        return 0, left + 1
    return max(left, right) + 1, L + 2 + max(0, left + right - L)


def _fits(k: int, room: int, left: int, right: int | None, L: int) -> bool:
    return (k // 2) * (L + 2) + _gap_extras(left, right, L)[k % 2] <= room


def _most(room: int, left: int, right: int | None, L: int) -> int:
    """Most served receivers that fit in `room` positions; -1 when a closing receiver leaves too little."""
    most = -1
    for parity, extra in enumerate(_gap_extras(left, right, L)):
        if room >= extra:
            most = max(most, 2 * ((room - extra) // (L + 2)) + parity)
    return most


def _gap_dp(t: Topology) -> tuple[int, tuple[int, ...]]:
    """Value and lexicographically first largest servable receiver set of a generated topology.

    Receiver i of a sorted set S is servable exactly when the next member
    lies more than L past the previous one: next_S(i) - prev_S(i) >= L+2,
    mod K on the cycle; on the chain a missing previous member counts as
    position 0 and a missing next one never blocks.  The DP state after a
    served receiver is its distance back to the previous one, capped at
    L+1, which fixes how far its server reaches past it (`_reach`).  The
    state's value has a closed form (`_gap_extras`), so the walk places
    each receiver at the nearest position after which the rest still fit:
    O(K) steps in all, none of them over subsets.
    """
    K, L = t.K, t.L
    if t.mode == CYCLIC:
        # rotating any optimum puts one of its members at 1, so the first
        # optimum contains 1.  Its successor at 1+d fixes both ends of the
        # run that closes back onto 1: the successor's server reaches
        # _reach(d) past it, and 1's server must start that far back
        # (beyond d = L+1 the room only shrinks)
        best_d, value = None, 1
        for d in range(1, min(L + 1, K - 1) + 1):
            c = _reach(d, L)
            more = _most(K - d, c, c, L)
            if more >= 0 and 2 + more > value:
                best_d, value = d, 2 + more
        if best_d is None:
            return 1, (1,)
        served = [1, 1 + best_d]
        x, left, right, end = 1 + best_d, _reach(best_d, L), _reach(best_d, L), K + 1
    else:
        served = []
        x, left, right, end = 0, 0, None, K
        value = _most(K, 0, None, L)
    for k in range(value - len(served) - 1, -1, -1):
        # the nearest next member after which k more still fit; past a gap
        # of L+1 the reach stays 0 and the room only shrinks
        for e in range(left + 1, L + 2):
            if _fits(k, end - x - e, _reach(e, L), right, L):
                break
        else:
            raise RuntimeError(f"gap DP found no room for {k + 1} more receivers after {x}")
        x, left = x + e, _reach(e, L)
        served.append(x)
    return value, tuple(served)


def _carrier_assignment(t: Topology, found: dict[int, int], M: int | None) -> MessageAssignment:
    """Served messages ride their servers, the rest their lowest heard transmitter."""
    carriers = []
    for i in range(1, t.K + 1):
        if i in found:
            carriers.append(found[i])
        else:
            heard = t.rx_masks[i - 1]
            if heard == 0:
                raise InvalidParameterError(f"receiver {i} hears no transmitter")
            carriers.append((heard & -heard).bit_length())
    return singleton_assignment(carriers, budget=M)


def _optimal_tdma_generated(t: Topology, M: int | None
                            ) -> tuple[MessageAssignment, TdmaSchedule, DofResult]:
    """The gap DP's set as a one-entry schedule, after the runtime checks."""
    value, served = _gap_dp(t)
    mask = 0
    for i in served:
        mask |= 1 << (i - 1)
    full = (1 << t.K) - 1
    found = {}
    for i in served:
        server = _served_candidates(t, i, mask, full)
        if server is None:
            raise RuntimeError(f"gap DP serves receiver {i}, which no transmitter serves alone")
        found[i] = server
    assignment = _carrier_assignment(t, found, M)
    schedule = TdmaSchedule(K=t.K, entries=((ServedSet.from_map(found), Fraction(1)),))
    try:
        validate_schedule(t, assignment, schedule)
    except InvalidScheduleError as exc:
        raise RuntimeError(f"gap DP schedule fails validation: {exc}") from exc
    if len(found) != value:
        raise RuntimeError(f"gap DP value {value} differs from its served-set size {len(found)}")
    if t.mode == CYCLIC and value != max(1, 2 * t.K // (t.L + 2)):
        raise RuntimeError(f"gap DP value {value} differs from max(1, floor(2K/(L+2)))")
    return assignment, schedule, DofResult(sum_dof=Fraction(value), K=t.K, method=METHOD_TDMA_SEARCH)


def optimal_tdma(t: Topology, M: int | None = 1) -> tuple[MessageAssignment, TdmaSchedule, DofResult]:
    """Exact TDMA optimum over all assignments within budget M.

    A fractional schedule's sum DoF is a convex combination of served-set
    sizes, so the optimum concentrates on a single largest servable set;
    and any served set picks one transmitter per message, so budgets above
    one cannot enlarge the search space.  The search therefore looks for
    the lexicographically first largest set of receivers that can each
    claim a connected transmitter covering no other member.  Generated
    topologies use the gap DP at any K and emit its one-entry schedule.
    Explicit ones, up to K <= TDMA_SEARCH_K_LIMIT (read at call time), take
    that set from the pair-clique search under the assignment that gives
    every message all the transmitters its receiver hears; messages then
    ride their servers, and the winning assignment's own best schedule is
    re-derived as a cross-check.
    """
    if M is not None and (not isinstance(M, int) or isinstance(M, bool) or M < 1):
        raise InvalidParameterError(f"budget M must be a positive integer or None, got {M!r}")
    if t.mode in GENERATED_MODES:
        return _optimal_tdma_generated(t, M)
    if t.K > TDMA_SEARCH_K_LIMIT:
        raise ResourceLimitError(
            f"TDMA search limited to K <= {TDMA_SEARCH_K_LIMIT} on explicit topologies, "
            f"got K={t.K}", limit=TDMA_SEARCH_K_LIMIT)
    heard = MessageAssignment(
        transmit_sets=tuple(frozenset(j + 1 for j in iter_bits(row)) for row in t.rx_masks),
        budget=None)
    ((served_set, _),) = best_sum_schedule(t, heard)[0].entries
    found = served_set.server_of
    assignment = _carrier_assignment(t, found, M)
    schedule, result = best_sum_schedule(t, assignment)
    if result.sum_dof != len(found):
        raise RuntimeError("fixed-assignment schedule disagrees with the served-set search")
    return assignment, schedule, result
