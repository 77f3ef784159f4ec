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
connected topologies.  A graph is stored as exactly those neighbourhoods,
one no-incoming-edge mask per node, so building one reads one topology
mask per message.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .errors import (
    InvalidAssignmentError,
    InvalidParameterError,
    ResourceLimitError,
    UnsupportedAssignmentError,
)
from .schemes import MessageAssignment, singleton_assignment
from .topology import CYCLIC, TRUNCATED, Topology, iter_bits, ring_arc

DEMAND_LP_K_LIMIT = 12
ASSIGNMENT_ENUMERATION_LIMIT = 20000


@dataclass(frozen=True)
class DemandGraph:
    """Directed demand graph over collapsed message-destination nodes.

    Stored as one mask per node: nonsource_masks[v-1] holds node v and
    every node u with NO edge u -> v.  For a built graph this is exactly
    the coverage of message v's carrier.  A node whose mask contains a
    subset S has in-degree zero within S.
    """

    K: int
    nonsource_masks: tuple[int, ...]
    assignment: MessageAssignment | None = None

    def __post_init__(self):
        if len(self.nonsource_masks) != self.K:
            raise InvalidParameterError(
                f"demand graph over {self.K} nodes needs {self.K} masks, "
                f"got {len(self.nonsource_masks)}")
        outside = ~((1 << self.K) - 1)
        for v, mask in enumerate(self.nonsource_masks):
            if mask & outside or not mask >> v & 1:
                raise InvalidParameterError(
                    f"node {v + 1}'s mask must lie inside 1..{self.K} and hold node {v + 1}")


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
    masks = []
    for i, ts in enumerate(a.transmit_sets, start=1):
        if len(ts) != 1:
            raise UnsupportedAssignmentError(
                f"demand graph needs single-transmitter sets, message {i} has {len(ts)}")
        (tx,) = ts
        if not t.connected(i, tx):
            raise InvalidAssignmentError(
                f"message {i} is carried by transmitter {tx}, which receiver {i} does not hear")
        # receiver u has an edge to message i exactly when u misses its carrier
        masks.append(t.tx_masks[tx - 1])
    return DemandGraph(K=t.K, nonsource_masks=tuple(masks), assignment=a)


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


def dof_upper_bound_lp(g: DemandGraph) -> DofBound:
    """Exact outer bound: max sum d_i s.t. sum over each maximal acyclic subset <= 1.

    Solved in exact rational arithmetic; the returned certificate is the
    optimal dual, one non-negative weight per binding subset.
    DEMAND_LP_K_LIMIT is read at call time.
    """
    if g.K > DEMAND_LP_K_LIMIT:
        raise ResourceLimitError(
            f"demand LP limited to K <= {DEMAND_LP_K_LIMIT}, got K={g.K}", limit=DEMAND_LP_K_LIMIT)
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


def _closed_form_bound(t: Topology) -> DofBound:
    """Best-assignment bound of a generated topology, built in closed form.

    Applies to every truncated topology and to cyclic ones with L+2 | K,
    K = L+1 or even L.  Returns the candidate assignment, a dual
    certificate of acyclic groups and the optimum, pinned by a primal
    witness; the checks read the candidate's demand graph masks, and no
    LP is solved.

    Upper bound for every assignment.  Message v rides a carrier at t_v in
    [v-L, v], which covers [t_v, t_v+L].  Tile lemma: on a run of L+2
    consecutive users numbered 0..L+1, the messages with t_v <= 0 cover
    [0, v], so every receiver of that group hears its highest member's
    carrier and the group is acyclic (peel the highest first); those with
    t_v >= 1 cover [v, L+1], so that group is acyclic too (peel the lowest
    first).  The two groups partition the run, so its sum is at most 2.
    Wrap-around on a cycle with K >= L+2 only adds coverage and removes
    demand edges, so the lemma holds on every run.  Hence:
      - cyclic, L+2 | K: K/(L+2) disjoint tiles give 2K/(L+2);
      - cyclic, K >= L+2: each user lies in L+2 of the K runs, so summing
        the lemma over all runs gives (L+2) sum d <= 2K, i.e. 2K/(L+2);
      - truncated, r = K mod (L+2): a start block of users 1..r, then full
        tiles.  A start-block carrier t_v >= 1 covers [v, r] since
        r <= L+1, so the block is acyclic (peel the lowest first) and the
        total is 2 floor(K/(L+2)) + [r > 0];
      - cyclic, K = L+1: every receiver hears every transmitter, so there
        is no demand edge and the sum is at most 1.

    Candidates.  Tiles plus an end block (truncated, cyclic with L+2 | K,
    cyclic with K = L+1): tiles of width L+2 start at user 1, and the last
    user of each rides the tile's second transmitter, so the windows
    {s..s+L} and {s+1..s+L+1} of the tile at s are acyclic; the last r
    users all ride transmitter K-r+1 and form one group.  Each group has
    weight 1, and the witness puts 1 on the tile-boundary messages s and
    s+L+1 and on user K when r > 0.  Centred arcs (cyclic, even L, the
    rest): message v rides transmitter v-L/2, covering [v-L/2, v+L/2];
    the K arcs {v..v+L/2} have weight 2/(L+2) each, as does every message
    in the witness.

    Witness feasibility.  With h = 0 for tiles and h = L/2 for arcs, each
    witness message's carrier is checked to reach exactly the witness
    receivers within h of it on the ring, so the demand graph on the
    witness is symmetric and an acyclic subset S of it has members
    pairwise at most h apart.  From any x in S, the offsets -d and h+1-d
    (d = 1..h) are h+1 apart, more than h as K >= 2h+2, so each such pair
    holds at most one member and |S| <= h+1: weight 1/(h+1) per member is
    feasible.  Its value equals the certificate's total, so by weak
    duality the candidate's LP optimum equals the upper bound above.
    Each failed check raises RuntimeError.
    """
    K, L = t.K, t.L
    width = L + 2
    if t.mode == CYCLIC and K % width and K > L + 1:
        h = L // 2
        carriers = [(v - h - 1) % K + 1 for v in range(1, K + 1)]
        weight = Fraction(1, h + 1)
        groups = [(ring_arc(v, h + 1, K), weight) for v in range(K)]
        witness = (1 << K) - 1
    else:
        h = 0
        r = K % width
        carriers = [v - L if v % width == 0 else v for v in range(1, K - r + 1)]
        carriers += [K - r + 1] * r
        groups = []  # (mask, weight)
        witness = 0
        for s in range(0, K - r, width):  # 0-based tile starts
            groups += [(ring_arc(s, L + 1, K), Fraction(1)),
                       (ring_arc(s + 1, L + 1, K), Fraction(1))]
            witness |= (1 << s) | (1 << (s + L + 1))
        if r:
            groups.append((ring_arc(K - r, r, K), Fraction(1)))
            witness |= 1 << (K - 1)
    assignment = singleton_assignment(carriers, budget=1)
    masks = build_demand_graph(t, assignment).nonsource_masks
    certificate = []
    for mask, weight in groups:
        subset = frozenset(b + 1 for b in iter_bits(mask))
        if not _mask_acyclic(masks, mask):
            raise RuntimeError(
                f"acyclicity check failed: window {sorted(subset)} has a cycle")
        certificate.append((subset, weight))
    for v in iter_bits(witness):
        if masks[v] & witness != ring_arc(v - h, 2 * h + 1, K) & witness:
            raise RuntimeError(
                f"primal witness check failed: message {v + 1}'s carrier does not reach "
                f"exactly the witness receivers within {h} of it")
    bound = DofBound(value=Fraction(witness.bit_count(), h + 1),
                     certificate=tuple(certificate), assignment=assignment)
    if not verify_certificate(bound, K):
        raise RuntimeError(
            f"certificate check failed: the groups do not prove {bound.value}")
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


def best_assignment_upper_bound(t: Topology) -> DofBound:
    """Max of dof_upper_bound_lp over all valid single-transmitter assignments.

    Generated topologies take the closed form of _closed_form_bound,
    except cyclic ones with odd L, L+2 not dividing K and K >= L+2; those
    and explicit topologies are enumerated by _enumerated_bound.
    """
    if t.mode == TRUNCATED or t.mode == CYCLIC and (
            t.L % 2 == 0 or t.K % (t.L + 2) == 0 or t.K == t.L + 1):
        return _closed_form_bound(t)
    return _enumerated_bound(t)


def _enumerated_bound(t: Topology) -> DofBound:
    """Max of dof_upper_bound_lp over every assignment, one per rotation
    orbit on cyclic topologies.

    The route for topologies without a closed form, and the reference the
    closed forms are tested against.  ASSIGNMENT_ENUMERATION_LIMIT and
    DEMAND_LP_K_LIMIT are read at call time.
    """
    space = 1
    for m in t.rx_masks:
        if m == 0:
            raise InvalidParameterError("some receiver hears no transmitter")
        space *= m.bit_count()
    if t.mode == CYCLIC:
        why = (f"cyclic K={t.K} L={t.L} has odd L with L+2 not dividing K, "
               "so no closed form applies")
    else:
        why = f"{t.mode} topologies have no closed-form bound"
    if space > ASSIGNMENT_ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"{why}, and its {space} assignments exceed the enumeration limit "
            f"{ASSIGNMENT_ENUMERATION_LIMIT}", limit=ASSIGNMENT_ENUMERATION_LIMIT)
    if t.K > DEMAND_LP_K_LIMIT:
        raise ResourceLimitError(
            f"{why}, and the demand LP is limited to K <= {DEMAND_LP_K_LIMIT}, got K={t.K}",
            limit=DEMAND_LP_K_LIMIT)

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
