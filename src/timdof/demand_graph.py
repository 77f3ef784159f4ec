"""Demand graphs for single-transmitter assignments and exact LP outer bounds.

Collapsing each message with its destination gives a directed graph: an
edge u -> v is present when receiver u does not hear the transmitter
carrying message v.  Any set of messages whose induced demand graph is
acyclic has sum DoF at most one, so maximizing sum d_i under one such
constraint per maximal acyclic subset yields a rigorous outer bound,
solved here in exact rational arithmetic with a dual certificate.

The key structural fact used throughout: an acyclic subset always
contains a node with no incoming edges, and that node's carrier must
cover the whole subset.  Candidate subsets therefore live inside the
coverage neighbourhoods, which keeps enumeration small for locally
connected topologies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import lp
from .errors import (
    InvalidAssignmentError,
    InvalidParameterError,
    ResourceLimitError,
    UnsupportedAssignmentError,
)
from .schemes import MessageAssignment, singleton_assignment
from .topology import CYCLIC, Topology, iter_bits

DEMAND_LP_K_LIMIT = 12
ASSIGNMENT_ENUMERATION_LIMIT = 20000
TILE_CERTIFICATION_L_LIMIT = 4


@dataclass(frozen=True)
class DemandGraph:
    """Directed demand graph over collapsed message-destination nodes."""

    K: int
    edges: frozenset[tuple[int, int]]  # (u, v) means u -> v
    assignment: MessageAssignment | None = None

    def __post_init__(self):
        for u, v in self.edges:
            if not (1 <= u <= self.K and 1 <= v <= self.K):
                raise InvalidParameterError(f"edge ({u},{v}) outside 1..{self.K}")
            if u == v:
                raise InvalidParameterError(f"demand graph admits no self-loop, got ({u},{v})")

    @cached_property
    def nonsource_masks(self) -> tuple[int, ...]:
        """nonsource_masks[v-1] holds the nodes u with NO edge u -> v (plus v).

        For built graphs this is exactly the coverage of message v's carrier;
        a node whose mask contains a subset S has in-degree zero within S.
        """
        masks = [(1 << self.K) - 1] * self.K
        for u, v in self.edges:
            masks[v - 1] &= ~(1 << (u - 1))
        return tuple(masks)


@dataclass(frozen=True)
class DofBound:
    """Exact LP outer bound with a dual certificate.

    certificate lists (acyclic subset, weight) pairs: weights are
    non-negative rationals summing to the value, and every message is
    covered with total weight at least one, which proves the bound.
    """

    value: Fraction
    certificate: tuple[tuple[frozenset[int], Fraction], ...]
    assignment: MessageAssignment | None


def build_demand_graph(t: Topology, a: MessageAssignment) -> DemandGraph:
    """Collapse message-destination pairs under a single-transmitter assignment."""
    if a.K != t.K:
        raise InvalidAssignmentError(f"assignment is over {a.K} users, topology has {t.K}")
    carriers = []
    for i, ts in enumerate(a.transmit_sets, start=1):
        if len(ts) != 1:
            raise UnsupportedAssignmentError(
                f"demand graph needs single-transmitter sets, message {i} has {len(ts)}")
        (tx,) = ts
        if not t.connected(i, tx):
            raise InvalidAssignmentError(
                f"message {i} is carried by transmitter {tx}, which receiver {i} does not hear")
        carriers.append(tx)
    edges = frozenset(
        (u, v)
        for u in range(1, t.K + 1)
        for v in range(1, t.K + 1)
        if u != v and not t.connected(u, carriers[v - 1]))
    return DemandGraph(K=t.K, edges=edges, assignment=a)


def _mask_acyclic(nonsource: tuple[int, ...], mask: int) -> bool:
    # peel in-degree-zero nodes; any peel order works
    while mask:
        for v in iter_bits(mask):
            if nonsource[v] & mask == mask:
                mask &= ~(1 << v)
                break
        else:
            return False
    return True


def is_acyclic_subset(g: DemandGraph, subset) -> bool:
    """True iff the induced subgraph on `subset` has no directed cycle."""
    mask = 0
    for v in subset:
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= g.K:
            raise InvalidParameterError(f"node {v!r} outside 1..{g.K}")
        mask |= 1 << (v - 1)
    return _mask_acyclic(g.nonsource_masks, mask)


def maximal_acyclic_subsets(g: DemandGraph) -> tuple[frozenset[int], ...]:
    """All inclusion-maximal acyclic subsets, enumerated via coverage windows.

    Every nonempty acyclic subset sits inside the no-incoming-edge mask of
    one of its members, so candidates are subsets of those masks; the
    empty graph case returns the empty set alone.
    """
    nonsource = g.nonsource_masks
    candidates = set()
    for v in range(g.K):
        bit = 1 << v
        rest = nonsource[v] & ~bit
        members = list(iter_bits(rest))
        for r in range(len(members) + 1):
            for combo in itertools.combinations(members, r):
                m = bit
                for u in combo:
                    m |= 1 << u
                candidates.add(m)
    acyclic = [m for m in candidates if _mask_acyclic(nonsource, m)]
    maximal = []
    for m in acyclic:
        extendable = any(
            _mask_acyclic(nonsource, m | (1 << v))
            for v in range(g.K) if not m & (1 << v))
        if not extendable:
            maximal.append(m)
    if not maximal:
        maximal = [0]
    as_sets = [frozenset(b + 1 for b in iter_bits(m)) for m in maximal]
    return tuple(sorted(as_sets, key=sorted))


def dof_upper_bound_lp(g: DemandGraph, k_limit: int = DEMAND_LP_K_LIMIT) -> DofBound:
    """Exact outer bound: max sum d_i s.t. sum over each maximal acyclic subset <= 1.

    Solved in exact rational arithmetic; the returned certificate is the
    optimal dual, one non-negative weight per binding subset.
    """
    if g.K > k_limit:
        raise ResourceLimitError(
            f"demand LP limited to K <= {k_limit}, got K={g.K}", limit=k_limit)
    subsets = [s for s in maximal_acyclic_subsets(g) if s]
    if not subsets:
        raise InvalidParameterError("demand graph admits no nonempty acyclic subset")
    A = [[1 if v in s else 0 for v in range(1, g.K + 1)] for s in subsets]
    res = lp.maximize(c=[1] * g.K, A=A, b=[1] * len(subsets))
    certificate = tuple(
        (subsets[r], w) for r, w in enumerate(res.dual) if w > 0)
    return DofBound(value=res.value, certificate=certificate, assignment=g.assignment)


def verify_certificate(bound: DofBound, K: int) -> bool:
    """Check that the dual certificate actually proves the bound."""
    total = Fraction(0)
    coverage = [Fraction(0)] * K
    for subset, w in bound.certificate:
        if w < 0:
            return False
        total += w
        for v in subset:
            coverage[v - 1] += w
    return total == bound.value and all(c >= 1 for c in coverage)


@lru_cache(maxsize=None)
def _tile_patterns_bounded(L: int) -> bool:
    """Runtime lemma check: over a tile of L+2 consecutive users, any carrier
    offsets admit total DoF at most 2.

    For each of the (L+1)^(L+2) within-tile offset patterns, either two
    acyclic subsets cover the tile (so the tile sum is at most 2 by adding
    the two constraints), or the exact within-tile LP confirms the bound.
    """
    width = L + 2
    full = (1 << width) - 1
    for pattern in itertools.product(range(L + 1), repeat=width):
        cover = []
        for v in range(width):
            lo = v - pattern[v]
            m = 0
            for u in range(max(0, lo), min(width - 1, lo + L) + 1):
                m |= 1 << u
            cover.append(m)
        acyclic = bytearray(1 << width)
        acyclic[0] = 1
        for m in range(1, 1 << width):
            for v in iter_bits(m):
                if cover[v] & m == m and acyclic[m & ~(1 << v)]:
                    acyclic[m] = 1
                    break
        acyclic_masks = [m for m in range(1 << width) if acyclic[m]]
        if any(acyclic[full & ~m1] for m1 in acyclic_masks):
            continue
        # no two-subset cover: fall back to the exact within-tile LP
        maximal = [m for m in acyclic_masks
                   if not any(acyclic[m | (1 << v)] for v in range(width) if not m & (1 << v))]
        A = [[1 if m & (1 << v) else 0 for v in range(width)] for m in maximal]
        res = lp.maximize(c=[1] * width, A=A, b=[1] * len(maximal))
        if res.value > 2:
            return False
    return True


def _certified_cyclic_bound(t: Topology) -> DofBound:
    """Certified optimum 2K/(L+2) for cyclic K divisible by L+2, in closed form.

    Partitioning the users into K/(L+2) tiles bounds every assignment's LP
    by 2 per tile (runtime-checked lemma).  The boundary-offset assignment
    below carries each tile's last message on the tile's second transmitter,
    so per tile starting at s the windows {s..s+L} and {s+1..s+L+1} are
    acyclic and cover the tile: weight 1 on each is a dual certificate for
    2K/(L+2).  The tile-boundary messages s and s+L+1 are pairwise locked
    into 2-cycles, so the indicator vector on them is primal feasible with
    the same value; by weak duality the candidate's LP optimum is exactly
    2K/(L+2), with O(K L^2) mask operations and no LP solve.
    """
    K, L = t.K, t.L
    if not _tile_patterns_bounded(L):
        raise RuntimeError(
            f"tile bound failed for L={L}; certified path is unsound here")
    width = L + 2
    carriers = [v - L if v % width == 0 else v for v in range(1, K + 1)]
    candidate = singleton_assignment(carriers, budget=1)
    # coverage of each message's carrier, the built graph's nonsource masks
    masks = tuple(t.tx_masks[c - 1] for c in carriers)
    window = (1 << (L + 1)) - 1
    certificate = []
    witness = 0
    for s in range(0, K, width):  # 0-based tile starts
        for w in (window << s, window << (s + 1)):
            subset = frozenset(b + 1 for b in iter_bits(w))
            if not _mask_acyclic(masks, w):
                raise RuntimeError(
                    f"acyclicity check failed: window {sorted(subset)} has a cycle")
            certificate.append((subset, Fraction(1)))
        witness |= (1 << s) | (1 << (s + L + 1))
    for v in iter_bits(witness):
        if masks[v] & witness != 1 << v:
            raise RuntimeError(
                f"primal witness check failed: message {v + 1} is not in a 2-cycle "
                "with every other tile-boundary message")
    bound = DofBound(value=Fraction(2 * K, width), certificate=tuple(certificate),
                     assignment=candidate)
    if not verify_certificate(bound, K):
        raise RuntimeError(
            f"certificate check failed: the tile windows do not prove {bound.value}")
    return bound


def _enumerate_assignments(t: Topology):
    """Yield all single-transmitter carrier tuples, one per rotation orbit
    when the topology is cyclic."""
    K = t.K
    per_receiver = [sorted(iter_bits(t.rx_masks[i])) for i in range(K)]
    if t.mode == CYCLIC:
        offsets_per = range(t.L + 1)
        for offs in itertools.product(offsets_per, repeat=K):
            if any(offs[r:] + offs[:r] < offs for r in range(1, K)):
                continue  # keep only the least rotation of each orbit
            yield tuple((i - offs[i - 1] - 1) % K + 1 for i in range(1, K + 1))
    else:
        for combo in itertools.product(*per_receiver):
            yield tuple(b + 1 for b in combo)


def _rotate_carriers(carriers: tuple[int, ...], r: int, K: int) -> tuple[int, ...]:
    # rotate the whole assignment forward by r users
    return tuple((carriers[(i - r) % K] + r - 1) % K + 1 for i in range(K))


def best_assignment_upper_bound(t: Topology,
                                enumeration_limit: int = ASSIGNMENT_ENUMERATION_LIMIT,
                                k_limit: int = DEMAND_LP_K_LIMIT,
                                method: str = "auto") -> DofBound:
    """Max of dof_upper_bound_lp over all valid single-transmitter assignments.

    Small assignment spaces are enumerated exhaustively (one representative
    per rotation orbit on cyclic topologies).  Cyclic topologies with K a
    multiple of L+2 instead use the certified tile argument, which scales
    past the enumeration limit.  method forces a path: "auto",
    "exhaustive", or "certified".
    """
    if method not in ("auto", "exhaustive", "certified"):
        raise InvalidParameterError(f"unknown method {method!r}")
    space = 1
    for m in t.rx_masks:
        if m == 0:
            raise InvalidParameterError("some receiver hears no transmitter")
        space *= bin(m).count("1")

    certifiable = (
        t.mode == CYCLIC
        and t.L <= TILE_CERTIFICATION_L_LIMIT
        and t.K % (t.L + 2) == 0
        and t.K >= 2 * t.L + 2)
    if method == "certified":
        if not certifiable:
            raise InvalidParameterError(
                "certified path needs a cyclic topology with K a multiple of L+2, "
                f"K >= 2L+2, and L <= {TILE_CERTIFICATION_L_LIMIT}")
        return _certified_cyclic_bound(t)
    if method == "auto" and space > enumeration_limit:
        if certifiable:
            return _certified_cyclic_bound(t)
        raise ResourceLimitError(
            f"{space} assignments exceed the enumeration limit {enumeration_limit} "
            "and no certified shortcut applies", limit=enumeration_limit)
    # only the enumeration route pays the per-assignment LP cost at full K
    if t.K > k_limit:
        raise ResourceLimitError(
            f"demand LP limited to K <= {k_limit}, got K={t.K}", limit=k_limit)

    best_value = None
    best_encoding = None
    for carriers in _enumerate_assignments(t):
        a = singleton_assignment(carriers, budget=1)
        bound = dof_upper_bound_lp(build_demand_graph(t, a))
        if t.mode == CYCLIC:
            encoding = min(_rotate_carriers(carriers, r, t.K) for r in range(t.K))
        else:
            encoding = carriers
        if best_value is None or bound.value > best_value or (
                bound.value == best_value and encoding < best_encoding):
            best_value, best_encoding = bound.value, encoding
    final = singleton_assignment(best_encoding, budget=1)
    final_bound = dof_upper_bound_lp(build_demand_graph(t, final))
    if final_bound.value != best_value:
        raise RuntimeError("rotation symmetry violated")
    return final_bound
