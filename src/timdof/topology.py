"""Locally connected network topologies and structural graph queries.

A Topology records which receivers hear which transmitters in a K-user
interference network, as one bit mask per receiver.  Two generated
families are supported: a truncated chain where transmitter j reaches
receivers j..j+L clipped at K, and a cyclic variant where the same
window wraps around modulo K.  Hand-built bipartite topologies are
accepted for structural experiments.

All public indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidParameterError, ResourceLimitError

TRUNCATED = "truncated"
CYCLIC = "cyclic"
EXPLICIT = "explicit"

GENERATED_MODES = (TRUNCATED, CYCLIC)

# Chordality enumerates induced cycles; keep instances at desk scale.
CHORDALITY_K_LIMIT = 16


def _check_count(K) -> None:
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise InvalidParameterError(f"user count K must be a positive integer, got {K!r}")


def iter_bits(mask: int):
    """Yield the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ring_arc(start: int, length: int, K: int) -> int:
    """Mask of the `length` positions from 0-based `start` on, mod K."""
    w = ((1 << length) - 1) << (start % K)
    return (w | (w >> K)) & ((1 << K) - 1)


@dataclass(frozen=True)
class Topology:
    """Immutable connectivity structure, stored as one bit mask per receiver.

    rx_masks[i-1] has bit j-1 set iff receiver i hears transmitter j.  It is
    the only stored form of connectivity: tx_masks and edges are views
    derived from it on first use.
    """

    K: int
    L: int | None
    mode: str
    rx_masks: tuple[int, ...]

    def connected(self, receiver: int, transmitter: int) -> bool:
        """True iff `receiver` hears `transmitter`."""
        self.check_index(receiver)
        self.check_index(transmitter)
        return bool(self.rx_masks[receiver - 1] >> (transmitter - 1) & 1)

    def check_index(self, idx: int) -> None:
        if not isinstance(idx, int) or isinstance(idx, bool) or not 1 <= idx <= self.K:
            raise InvalidParameterError(f"index {idx!r} outside 1..{self.K}")

    @cached_property
    def tx_masks(self) -> tuple[int, ...]:
        """tx_masks[j-1] has bit i-1 set iff transmitter j reaches receiver i."""
        masks = [0] * self.K
        for i, row in enumerate(self.rx_masks):
            for j in iter_bits(row):
                masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The (receiver, transmitter) pairs that are connected."""
        return frozenset((i, j + 1) for i, row in enumerate(self.rx_masks, start=1)
                         for j in iter_bits(row))


def make_locally_connected(K: int, L: int, mode: str) -> Topology:
    """Build the K-user topology where transmitter j reaches receivers j..j+L.

    In truncated mode receiver indices past K are dropped, so each of the
    last L transmitters reaches only its own and the remaining following
    receivers.  In cyclic mode the window wraps modulo K.  Requires
    0 <= L < K.
    """
    _check_count(K)
    if not isinstance(L, int) or isinstance(L, bool) or L < 0:
        raise InvalidParameterError(f"connectivity parameter L must be a non-negative integer, got {L!r}")
    if L >= K:
        raise InvalidParameterError(f"need L < K, got L={L}, K={K}")
    if mode not in GENERATED_MODES:
        raise InvalidParameterError(f"mode must be one of {GENERATED_MODES}, got {mode!r}")
    # receiver i (0-based) hears transmitters i-L..i
    if mode == TRUNCATED:
        masks = tuple((1 << (i + 1)) - (1 << max(0, i - L)) for i in range(K))
    else:
        masks = tuple(ring_arc(i - L, L + 1, K) for i in range(K))
    return Topology(K=K, L=L, mode=mode, rx_masks=masks)


def explicit_topology(K: int, edges) -> Topology:
    """Build a hand-specified bipartite topology from (receiver, transmitter) pairs.

    Every receiver must keep its direct link (i, i); indices are 1-based.
    """
    _check_count(K)
    masks = [0] * K
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2:
            raise InvalidParameterError(f"edge {e!r} is not a (receiver, transmitter) pair")
        i, j = pair
        if not (isinstance(i, int) and isinstance(j, int)) or not (1 <= i <= K and 1 <= j <= K):
            raise InvalidParameterError(f"edge {e!r} outside 1..{K}")
        masks[i - 1] |= 1 << (j - 1)
    for i in range(1, K + 1):
        if not masks[i - 1] >> (i - 1) & 1:
            raise InvalidParameterError(f"receiver {i} is missing its direct link ({i},{i})")
    return Topology(K=K, L=None, mode=EXPLICIT, rx_masks=tuple(masks))


def receivers_heard_by(t: Topology, j: int) -> tuple[int, ...]:
    """Receivers that hear transmitter j, ascending."""
    t.check_index(j)
    return tuple(i + 1 for i in iter_bits(t.tx_masks[j - 1]))


def transmitters_heard_by(t: Topology, i: int) -> tuple[int, ...]:
    """Transmitters heard by receiver i, ascending."""
    t.check_index(i)
    return tuple(j + 1 for j in iter_bits(t.rx_masks[i - 1]))


def is_chordal_bipartite(t: Topology) -> bool:
    """Test whether the undirected bipartite topology graph is chordal bipartite.

    Chordal bipartite means every cycle of length >= 6 has a chord.  The
    check enumerates chordless cycles by depth-first extension of induced
    paths anchored at their least node, so it is exhaustive: False as soon
    as a chordless cycle of length >= 6 is found, True otherwise.
    CHORDALITY_K_LIMIT is read at call time.
    """
    if t.K > CHORDALITY_K_LIMIT:
        raise ResourceLimitError(
            f"chordality check limited to K <= {CHORDALITY_K_LIMIT}, got K={t.K}",
            limit=CHORDALITY_K_LIMIT)

    # Nodes 0..K-1 are receivers, K..2K-1 are transmitters.
    adj = [row << t.K for row in t.rx_masks] + list(t.tx_masks)
    start_bit = 0

    def extend(path: list[int], path_mask: int, interior_adj: int) -> bool:
        # path is an induced path; interior nodes are not adjacent to path[0]
        last = path[-1]
        cand = adj[last] & ~path_mask
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            if u <= path[0]:
                continue  # canonical: cycles are discovered from their least node
            if adj[u] & interior_adj:
                continue  # chord against an interior node, extension not induced
            if len(path) >= 2 and adj[u] & start_bit:
                # closing edge back to path[0]; chordless cycle of len(path)+1 nodes
                if len(path) + 1 >= 6:
                    return True
                continue  # a 4-cycle is allowed; extending past u would leave a chord
            path.append(u)
            new_interior = interior_adj | ((1 << last) if len(path) > 2 else 0)
            if extend(path, path_mask | low, new_interior):
                return True
            path.pop()
        return False

    # The least node of any cycle is a receiver: receiver ids precede
    # transmitter ids and every cycle alternates between the two sides.
    for v0 in range(t.K):
        start_bit = 1 << v0
        if extend([v0], start_bit, 0):
            return False
    return True
