"""Independent reference implementations used to cross-check the package.

Each oracle takes a deliberately different route from the production code:
LP values come from basic-point enumeration instead of simplex, acyclicity
from a three-color DFS instead of source peeling, demand edges from
pair-by-pair connectivity queries instead of carrier coverage masks,
chordality from brute subset enumeration, served sets from a scan of
every receiver subset instead of cliques, received signals from literal
scalar loops on Python numbers (decodability and the reconstruction report
are ranked on them one receiver and one block at a time), ranks over GF(p)
from Gauss-Jordan elimination on Python ints instead of a batched
fraction-free int64 one, and the best-assignment bound
from a plain product of assignments instead of rotation orbits.

The float path the simulation layer replaced lives on here as a second
reference: complex Gaussian schemes and channels drawn as it drew them,
ranked by SVD with a relative singular-value cutoff.  The literal oracles
take either kind of scheme and channel, and work over GF(p) for integer
channels and in complex floats otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from timdof import demand_graph, linear_sim, schemes

PRIME = linear_sim.PRIME
# singular values below RANK_REL_TOL * (largest singular value) count as zero
RANK_REL_TOL = 1e-9


def solve_exact(rows, rhs):
    """Solve a square Fraction system by Gaussian elimination; None if singular."""
    n = len(rows)
    aug = [list(row) + [val] for row, val in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def lp_max_by_vertex_enumeration(c, A, b):
    """Max c.x over {x >= 0, Ax <= b} by checking every basic point.

    Assumes the feasible region is bounded and b >= 0 (so x = 0 is
    feasible), which holds for every LP the package builds.
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    cons = [(rows[k], rhs[k]) for k in range(len(rows))]
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(-1)
        cons.append((e, Fraction(0)))
    best = Fraction(0) if all(v >= 0 for v in rhs) else None
    for combo in itertools.combinations(range(len(cons)), n):
        x = solve_exact([cons[k][0] for k in combo], [cons[k][1] for k in combo])
        if x is None or any(xi < 0 for xi in x):
            continue
        if any(sum(r[i] * x[i] for i in range(n)) > rv for r, rv in zip(rows, rhs)):
            continue
        val = sum(c[i] * x[i] for i in range(n))
        if best is None or val > best:
            best = val
    return best


def digraph_is_acyclic(nodes, edges):
    """Three-color DFS cycle detection on a directed graph."""
    nodes = list(nodes)
    adj = {v: [] for v in nodes}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}

    def visit(u):
        color[u] = GRAY
        for w in adj[u]:
            if color[w] == GRAY:
                return False
            if color[w] == WHITE and not visit(w):
                return False
        color[u] = BLACK
        return True

    return all(color[v] != WHITE or visit(v) for v in nodes)


def demand_edges(t, carriers):
    """Demand edges u -> v, pair by pair: receiver u does not hear the
    transmitter carrying message v."""
    K = t.K
    return frozenset((u, v) for u in range(1, K + 1) for v in range(1, K + 1)
                     if u != v and not t.connected(u, carriers[v - 1]))


def demand_graph_from_edges(K, edges):
    """A hand-built DemandGraph: node v's mask drops every u with an edge u -> v.

    A self-loop drops v from its own mask, which DemandGraph rejects.
    """
    masks = [(1 << K) - 1] * K
    for u, v in edges:
        masks[v - 1] &= ~(1 << (u - 1))
    return demand_graph.DemandGraph(K=K, nonsource_masks=tuple(masks))


def _subset_connected(sub, adj):
    ss = set(sub)
    seen = {sub[0]}
    stack = [sub[0]]
    while stack:
        v = stack.pop()
        for w in adj[v] & ss:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(ss)


def has_chordless_cycle_at_least_6(n_nodes, und_edges):
    """Brute force: some vertex subset induces a single cycle of length >= 6."""
    adj = {v: set() for v in range(n_nodes)}
    for u, v in und_edges:
        adj[u].add(v)
        adj[v].add(u)
    for size in range(6, n_nodes + 1):
        for sub in itertools.combinations(range(n_nodes), size):
            ss = set(sub)
            if all(len(adj[v] & ss) == 2 for v in sub) and _subset_connected(sub, adj):
                return True
    return False


def rank_mod_p(mat):
    """Rank over GF(PRIME) by Gauss-Jordan elimination on Python ints, pivoting
    on the rows in order and normalizing each pivot by its inverse."""
    rows = [[int(x) % PRIME for x in row] for row in np.asarray(mat, dtype=object).tolist()]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], PRIME - 2, PRIME)
        lead = [x * inverse % PRIME for x in rows[rank]]
        rows[rank] = lead
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % PRIME for x, y in zip(rows[r], lead)]
        rank += 1
    return rank


def svd_rank(mat):
    """Numerical rank of a complex matrix, or of each of a stack, by SVD with
    the relative singular-value cutoff RANK_REL_TOL."""
    if mat.size == 0:
        ranks = np.zeros(mat.shape[:-2], dtype=int)
    else:
        sv = np.linalg.svd(mat, compute_uv=False)
        # an all-zero matrix has top singular value 0 and counts nothing
        ranks = np.count_nonzero(sv > RANK_REL_TOL * sv[..., :1], axis=-1)
    return int(ranks) if mat.ndim == 2 else ranks


def _is_exact(c):
    return np.issubdtype(c.h.dtype, np.integer)


def _rank(mat, exact):
    return rank_mod_p(mat) if exact else svd_rank(mat)


@dataclass(eq=False)
class ComplexScheme:
    """A linear scheme with complex precoders, as the float path held one."""

    n: int
    assignment: schemes.MessageAssignment
    symbol_counts: tuple[int, ...]
    precoders: dict

    @property
    def K(self):
        return self.assignment.K

    def precoder(self, j, i):
        got = self.precoders.get((j, i))
        return np.zeros((self.n, self.symbol_counts[i - 1]), dtype=complex) if got is None else got


@dataclass(eq=False)
class ComplexChannel:
    """Complex channel gains h[i-1, j-1, t-1]."""

    h: np.ndarray


def complex_gaussian_scheme(t, a, n, density, seed):
    """The float path's random scheme: the symbol counts drawn as
    linear_sim.random_scheme draws them, then two standard-normal draws per
    (transmitter, message) precoder."""
    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(t.K):
        active = rng.random() < density
        counts.append(int(rng.integers(1, n + 1)) if active else 0)
    precoders = {}
    for i in range(1, t.K + 1):
        m = counts[i - 1]
        if m == 0:
            continue
        for j in sorted(a.transmit_sets[i - 1]):
            precoders[(j, i)] = (rng.standard_normal((n, m))
                                 + 1j * rng.standard_normal((n, m))) / math.sqrt(2)
    return ComplexScheme(n=n, assignment=a, symbol_counts=tuple(counts), precoders=precoders)


def complex_scheme_of(s):
    """The GF(p) scheme s with its integer precoders read as complex numbers."""
    return ComplexScheme(n=s.n, assignment=s.assignment, symbol_counts=s.symbol_counts,
                         precoders={key: mat.astype(complex) for key, mat in s.precoders.items()})


def complex_gaussian_channel(t, n, coherence=linear_sim.TIME_VARYING, seed=0):
    """The float path's channel draw: i.i.d. standard complex Gaussian gains
    on the topology support, one matrix repeated over the slots when the
    coherence is constant."""
    K = t.K
    rng = np.random.default_rng(seed)
    if coherence == linear_sim.CONSTANT:
        base = (rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))) / math.sqrt(2)
        h = np.repeat(base[:, :, None], n, axis=2)
    else:
        h = (rng.standard_normal((K, K, n)) + 1j * rng.standard_normal((K, K, n))) / math.sqrt(2)
    support = np.array([[t.connected(i, j) for j in range(1, K + 1)] for i in range(1, K + 1)])
    return ComplexChannel(h=h * support[:, :, None])


def received_maps_literal(scheme, c, receiver):
    """Desired and interference maps at a receiver via literal scalar loops,
    exact over GF(PRIME) for an integer channel, complex otherwise."""
    n, K = scheme.n, scheme.K
    i = receiver
    exact = _is_exact(c)
    gains = c.h[i - 1].tolist()

    def arrival(k):
        m = scheme.symbol_counts[k - 1]
        out = [[0] * m for _ in range(n)]
        for j in sorted(scheme.assignment.transmit_sets[k - 1]):
            V = scheme.precoder(j, k).tolist()
            for t_ in range(n):
                for q in range(m):
                    out[t_][q] += gains[j - 1][t_] * V[t_][q]
        if exact:
            out = [[x % PRIME for x in row] for row in out]
        return np.array(out, dtype=np.int64 if exact else complex).reshape(n, m)

    desired = arrival(i)
    others = [arrival(k) for k in range(1, K + 1) if k != i]
    interference = np.hstack([desired[:, :0]] + others)
    return desired, interference


def decodable_total_literal(scheme, c):
    """Sum over receivers of rank([desired | interference]) - rank(interference),
    one receiver at a time on the literal maps."""
    exact = _is_exact(c)
    total = 0
    for i in range(1, scheme.K + 1):
        desired, interference = received_maps_literal(scheme, c, i)
        total += (_rank(np.hstack([desired, interference]), exact)
                  - _rank(interference, exact))
    return total


def reconstruction_report_literal(scheme, c, B):
    """The lemma1 report of receiver set B, assembled block by block from the
    literal received maps and the precoders."""
    K, n, counts = scheme.K, scheme.n, scheme.symbol_counts
    exact = _is_exact(c)
    dtype = np.int64 if exact else complex
    rows = tuple(sorted(B))
    outside = [k for k in range(1, K + 1) if k not in rows]
    interfering = sorted({j for k in outside if counts[k - 1]
                          for j in scheme.assignment.transmit_sets[k - 1]})
    exclusive = [j for j in range(1, K + 1) if j not in interfering]

    def outside_columns(blocks):
        picked = [blocks[k] for k in outside]
        return np.hstack(picked) if picked else np.zeros((n, 0), dtype=dtype)

    def receiver_blocks(i):
        desired, interference = received_maps_literal(scheme, c, i)
        blocks, col = {i: desired}, 0
        for k in range(1, K + 1):
            if k != i:
                blocks[k] = interference[:, col:col + counts[k - 1]]
                col += counts[k - 1]
        return blocks

    def transmit_map(j):
        return outside_columns({k: scheme.precoder(j, k) for k in range(1, K + 1)})

    s = sum(counts[k - 1] for k in outside)
    processed = np.vstack([np.zeros((0, s), dtype=dtype)]
                          + [outside_columns(receiver_blocks(i)) for i in rows])
    known = np.vstack([processed] + [transmit_map(j) for j in exclusive])
    augmented = np.vstack([known] + [transmit_map(j) for j in interfering])
    r = _rank(processed, exact)
    return linear_sim.ReconstructionReport(
        B=rows, exclusive_transmitters=tuple(exclusive),
        interfering_transmitters=tuple(interfering), s=s, r=r, deficiency=s - r,
        reconstructable=_rank(augmented, exact) == _rank(known, exact))


def schedulable_pairwise(t, s):
    """Served-set conditions checked pair by pair with connectivity queries.

    Distinct servers; each server reaches its receiver; no server reaches
    another served receiver.
    """
    pairs = s.servers
    if len({j for _, j in pairs}) != len(pairs):
        return False
    for i, j in pairs:
        if not t.connected(i, j):
            return False
    for i, _ in pairs:
        for i2, j2 in pairs:
            if i2 != i and t.connected(i, j2):
                return False
    return True


def maximal_servable_sets_by_subsets(t, a):
    """Server maps of the inclusion-maximal servable receiver sets under assignment a.

    Scans every receiver subset; a member's server is the lowest carrier of
    its message that it hears and no other member hears, and a subset is
    servable when every member has one.  Maps come in ascending order of
    their sorted receiver tuples.
    """
    K = t.K
    servable = {}
    for mask in range(1 << K):
        members = [i for i in range(1, K + 1) if mask >> (i - 1) & 1]
        servers = {}
        for i in members:
            server = next((j for j in sorted(a.transmit_sets[i - 1])
                           if t.connected(i, j)
                           and not any(t.connected(i2, j) for i2 in members if i2 != i)),
                          None)
            if server is None:
                break
            servers[i] = server
        else:
            servable[mask] = servers
    maximal = [mask for mask in servable
               if not any(other != mask and other & mask == mask for other in servable)]
    return [servable[mask] for mask in sorted(maximal, key=lambda m: sorted(servable[m]))]


def tdma_optimum_by_subsets(t):
    """Server map of the lexicographically first largest servable receiver set.

    Scans receiver subsets from the largest size down in combinations
    order; a receiver's server is the lowest transmitter it hears that no
    other member hears.
    """
    K = t.K
    for size in range(K, 0, -1):
        for combo in itertools.combinations(range(1, K + 1), size):
            servers = {}
            for i in combo:
                server = next((j for j in range(1, K + 1)
                               if t.connected(i, j)
                               and not any(t.connected(i2, j) for i2 in combo if i2 != i)),
                              None)
                if server is None:
                    break
                servers[i] = server
            else:
                return servers
    return None


def best_assignment_bound_by_product(t):
    """Max of the demand LP over every single-transmitter assignment.

    A plain product of the transmitters each receiver hears, with no
    rotation orbits, so it checks the orbit reduction of the enumeration.
    """
    heard = [[j for j in range(1, t.K + 1) if t.connected(i, j)] for i in range(1, t.K + 1)]
    return max(
        demand_graph.dof_upper_bound_lp(
            demand_graph.build_demand_graph(t, schemes.singleton_assignment(carriers))).value
        for carriers in itertools.product(*heard))
