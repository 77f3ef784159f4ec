"""Independent reference implementations used to cross-check the package.

Each oracle takes a deliberately different route from the production code:
LP values come from basic-point enumeration instead of simplex, acyclicity
from a three-color DFS instead of source peeling, chordality from brute
subset enumeration, and received signals from literal scalar loops.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


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


def received_maps_literal(scheme, c, receiver):
    """Desired and interference maps at a receiver via literal scalar loops."""
    n, K = scheme.n, scheme.K
    i = receiver

    def arrival(k):
        m = scheme.symbol_counts[k - 1]
        out = np.zeros((n, m), dtype=complex)
        for j in sorted(scheme.assignment.transmit_sets[k - 1]):
            V = scheme.precoder(j, k)
            for t_ in range(n):
                for q in range(m):
                    out[t_, q] += c.h[i - 1, j - 1, t_] * V[t_, q]
        return out

    desired = arrival(i)
    others = [arrival(k) for k in range(1, K + 1) if k != i]
    interference = np.hstack(others) if others else np.zeros((n, 0), dtype=complex)
    return desired, interference


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
