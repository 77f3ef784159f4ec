"""Numerical simulation of linear cooperation schemes and the reconstruction converse.

Schemes fix per-message symbol counts and per-(transmitter, message)
precoding matrices over n slots before any channel is drawn; channels are
then sampled i.i.d. complex Gaussian on the topology's support.  Achieved
DoF is evaluated by generic-rank decodability: the number of desired
dimensions a receiver resolves beyond its interference.  A channel draw is
turned into received maps a block of receivers at a time, visiting only
the links each receiver hears, and each block's decodability counts come
from batched ranks.  The converse diagnostic stacks the channel blocks of
a receiver set B, counts the interfering symbols s and the rank r of their
processed-signal map, and tests whether the non-exclusive transmit signals
can be rebuilt from B's processed signals, which is the linear step of the
sum-DoF <= |B| argument.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, ResourceLimitError
from .schemes import (
    METHOD_LINEAR_SIM,
    DofResult,
    MessageAssignment,
    TdmaSchedule,
    validate_schedule,
)
from .topology import Topology

TIME_VARYING = "time-varying"
CONSTANT = "constant"
COHERENCE_MODES = (TIME_VARYING, CONSTANT)

# singular values below RANK_REL_TOL * (largest singular value) count as zero
RANK_REL_TOL = 1e-9
SCHEDULE_LCM_LIMIT = 64
RANDOM_SCHEME_N_LIMIT = 8
# decodability counts hold the received maps of at most this many complex
# entries at once, taking the receivers a block at a time
RECEIVER_BLOCK_ENTRIES = 1 << 21


def generic_rank(mat: np.ndarray) -> int | np.ndarray:
    """Numerical rank with the relative singular-value cutoff RANK_REL_TOL.

    A stack of matrices (..., rows, cols) gets an array of ranks, one per
    matrix, from one batched SVD; a single matrix gets an int.
    """
    if mat.size == 0:
        ranks = np.zeros(mat.shape[:-2], dtype=int)
    else:
        sv = np.linalg.svd(mat, compute_uv=False)
        # an all-zero matrix has top singular value 0 and counts nothing
        ranks = np.count_nonzero(sv > RANK_REL_TOL * sv[..., :1], axis=-1)
    return int(ranks) if mat.ndim == 2 else ranks


@dataclass(eq=False)
class LinearScheme:
    """Per-message symbol counts and per-(transmitter, message) precoders.

    precoders maps (transmitter j, message i) to an n x m_i complex matrix
    and may only contain keys with j in the message's transmit set; missing
    keys mean the zero matrix.  Precoders never see channel values: schemes
    are fully built before realizations are sampled, and are not changed
    afterwards.
    """

    n: int
    assignment: MessageAssignment
    symbol_counts: tuple[int, ...]
    precoders: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise InvalidParameterError(f"slot count n must be a positive integer, got {self.n!r}")
        K = self.assignment.K
        if len(self.symbol_counts) != K:
            raise InvalidParameterError("symbol_counts length differs from the user count")
        for i, m in enumerate(self.symbol_counts, start=1):
            if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m <= self.n:
                raise InvalidParameterError(
                    f"message {i} has {m!r} symbols, needs an integer in 0..{self.n}")
        for (j, i), mat in self.precoders.items():
            if not (1 <= i <= K) or j not in self.assignment.transmit_sets[i - 1]:
                raise InvalidParameterError(
                    f"precoder keyed ({j},{i}) but transmitter {j} does not carry message {i}")
            want = (self.n, self.symbol_counts[i - 1])
            if mat.shape != want:
                raise InvalidParameterError(
                    f"precoder ({j},{i}) has shape {mat.shape}, expected {want}")

    @property
    def K(self) -> int:
        return self.assignment.K

    def precoder(self, j: int, i: int) -> np.ndarray:
        got = self.precoders.get((j, i))
        if got is None:
            return np.zeros((self.n, self.symbol_counts[i - 1]), dtype=complex)
        return got

    @cached_property
    def column_messages(self) -> np.ndarray:
        """The message (1-based) of each of the M = sum of m_i symbol columns."""
        return np.repeat(np.arange(1, self.K + 1), self.symbol_counts)

    @cached_property
    def transmit_runs(self) -> tuple[tuple[tuple[int, int, np.ndarray], ...], ...]:
        """Per transmitter, its map from the symbols it sends, in column runs.

        The M symbol columns are in message order.  Entry j-1 lists
        (lo, hi, n x (hi - lo) map) for each run of consecutive columns
        that transmitter j sends; a message it does not carry, or carries
        with a missing precoder, sends nothing.
        """
        start = np.concatenate(([0], np.cumsum(self.symbol_counts))).tolist()
        runs = [[] for _ in range(self.K)]
        for (j, i), mat in sorted(self.precoders.items(), key=lambda item: item[0]):
            lo, hi = start[i - 1], start[i]
            if lo == hi:
                continue
            sent = runs[j - 1]
            if sent and sent[-1][1] == lo:
                sent[-1][1] = hi
                sent[-1][2].append(mat)
            else:
                sent.append([lo, hi, [mat]])
        return tuple(tuple((lo, hi, np.hstack(mats)) for lo, hi, mats in sent) for sent in runs)


@dataclass(eq=False)
class ChannelRealization:
    """Sampled channel coefficients h[i-1, j-1, t-1], zero off the topology support."""

    K: int
    n: int
    coherence: str
    h: np.ndarray  # shape (K, K, n), complex

    def __post_init__(self):
        if self.coherence not in COHERENCE_MODES:
            raise InvalidParameterError(f"coherence must be one of {COHERENCE_MODES}")
        if self.h.shape != (self.K, self.K, self.n):
            raise InvalidParameterError(
                f"channel array has shape {self.h.shape}, expected {(self.K, self.K, self.n)}")


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of the reconstruction converse check for a receiver set B."""

    B: tuple[int, ...]
    exclusive_transmitters: tuple[int, ...]    # carry only B's messages
    interfering_transmitters: tuple[int, ...]  # carry some message outside B
    s: int
    r: int
    deficiency: int
    reconstructable: bool

    def __post_init__(self):
        if not 0 <= self.r <= self.s:
            raise InvalidParameterError(f"rank {self.r} outside 0..{self.s}")
        if self.deficiency != self.s - self.r:
            raise InvalidParameterError("deficiency must equal s - r")


def sample_channel(t: Topology, n: int, coherence: str = TIME_VARYING,
                   seed: int | None = None) -> ChannelRealization:
    """Draw i.i.d. standard complex Gaussian coefficients on the topology support.

    Deterministic for a given seed.  Constant coherence draws one matrix
    and repeats it across all n slots.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"slot count n must be a positive integer, got {n!r}")
    if coherence not in COHERENCE_MODES:
        raise InvalidParameterError(f"coherence must be one of {COHERENCE_MODES}")
    if seed is None:
        raise InvalidParameterError("sample_channel requires an explicit seed")
    K = t.K
    rng = np.random.default_rng(seed)
    if coherence == CONSTANT:
        base = (rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))) / math.sqrt(2)
        h = np.repeat(base[:, :, None], n, axis=2)
    else:
        h = (rng.standard_normal((K, K, n)) + 1j * rng.standard_normal((K, K, n))) / math.sqrt(2)
    # one 0/1 row per receiver, unpacked from its mask's little-endian bytes
    width = (K + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for row in t.rx_masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    support = bits.reshape(K, 8 * width)[:, :K].astype(float)
    return ChannelRealization(K=K, n=n, coherence=coherence, h=h * support[:, :, None])


def _check_consistency(s: LinearScheme, c: ChannelRealization) -> None:
    if s.K != c.K or s.n != c.n:
        raise InvalidInputError(
            f"scheme is ({s.K} users, {s.n} slots), realization is ({c.K}, {c.n})")


def _check_receiver(s: LinearScheme, i: int) -> None:
    if not 1 <= i <= s.K:
        raise InvalidParameterError(f"receiver {i!r} outside 1..{s.K}")


def _received_maps(s: LinearScheme, c: ChannelRealization, rows: np.ndarray) -> np.ndarray:
    """The maps from all M symbols to the n slots of the receivers at 0-based rows.

    Entry r is the sum over transmitters j of diag(h_{rows[r], j}) times j's
    map, placed in j's symbol columns, so the M columns are in message
    order.  Only the links a row hears are visited.
    """
    h = c.h[rows]
    heard = h.any(axis=2)
    G = np.zeros((len(rows), s.n, len(s.column_messages)), dtype=complex)
    for j in np.flatnonzero(heard.any(axis=0)):
        hit = np.flatnonzero(heard[:, j])
        gain = h[hit, j, :, None]
        for lo, hi, mat in s.transmit_runs[j]:
            G[hit, :, lo:hi] += gain * mat
    return G


def _decodable_counts(s: LinearScheme, G: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Decodable symbols at the receivers at 0-based rows, from their maps G.

    rank of receiver i's whole map minus the rank of its interference,
    which is the same map with message i's columns zeroed: zero columns do
    not change a rank, so each term is one batched SVD over the rows.
    """
    own = s.column_messages == rows[:, None] + 1
    return generic_rank(G) - generic_rank(np.where(own[:, None, :], 0, G))


def _receiver_blocks(s: LinearScheme, count: int) -> list[slice]:
    """Consecutive slices of count receivers, each with received maps of at
    most RECEIVER_BLOCK_ENTRIES entries."""
    size = max(1, RECEIVER_BLOCK_ENTRIES // (s.n * max(1, len(s.column_messages))))
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _decodable_total(s: LinearScheme, c: ChannelRealization) -> int:
    """Decodable symbols summed over all receivers, a block of receivers at a time."""
    receivers = np.arange(s.K)
    return sum(int(_decodable_counts(s, _received_maps(s, c, rows), rows).sum())
               for rows in (receivers[part] for part in _receiver_blocks(s, s.K)))


def received_map(s: LinearScheme, c: ChannelRealization,
                 i: int) -> tuple[np.ndarray, np.ndarray]:
    """Receiver i's desired and interference column blocks over the n slots.

    Returns (desired: n x m_i, interference: n x sum of other m_k), with
    interference blocks ordered by message index.
    """
    _check_consistency(s, c)
    _check_receiver(s, i)
    (row,) = _received_maps(s, c, np.array([i - 1]))
    own = s.column_messages == i
    return row[:, own], row[:, ~own]


def decodable_symbols(s: LinearScheme, c: ChannelRealization, i: int) -> int:
    """Desired dimensions resolvable beyond interference at receiver i.

    rank([desired | interference]) - rank(interference), computed with the
    relative singular-value tolerance RANK_REL_TOL.
    """
    _check_consistency(s, c)
    _check_receiver(s, i)
    rows = np.array([i - 1])
    return int(_decodable_counts(s, _received_maps(s, c, rows), rows)[0])


def aggregate_trials(totals) -> tuple[int, Fraction, bool]:
    """Modal value, disagreement rate, and the over-1% instability flag."""
    totals = list(totals)
    if not totals:
        raise InvalidParameterError("need at least one trial")
    counts = Counter(totals)
    top_freq = max(counts.values())
    modal = min(v for v, f in counts.items() if f == top_freq)
    rate = Fraction(len(totals) - top_freq, len(totals))
    return modal, rate, rate > Fraction(1, 100)


def evaluate_dof(s: LinearScheme, t: Topology, trials: int, seed: int,
                 coherence: str = TIME_VARYING) -> DofResult:
    """Simulated sum DoF: total decodable symbols per slot, modal across trials.

    Trial k draws its own channel from seed + k.  Generic rank should not
    depend on the realization, so disagreeing trials are recorded and the
    result is flagged unstable when they exceed 1%; values are never
    averaged.
    """
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise InvalidParameterError(f"trials must be a positive integer, got {trials!r}")
    return dof_from_trials(s, channel_trials(s, t, range(seed, seed + trials), coherence))


@dataclass(frozen=True)
class TrialRecord:
    """One channel draw: total decodable symbols and the receiver-set report.

    Either field is None when the caller did not ask for it.
    """

    total: int | None
    report: ReconstructionReport | None


def channel_trials(s: LinearScheme, t: Topology, seeds, coherence: str = TIME_VARYING,
                   receivers=None, totals: bool = True) -> Iterator[TrialRecord]:
    """Draw one channel per seed and evaluate the scheme on it, lazily.

    total sums the decodable symbols of all receivers unless totals is
    false; report is the lemma1_check of the receiver set, computed only
    when one is given.  Each draw is sampled once, whatever is asked of it.
    """
    if t.K != s.K:
        raise InvalidInputError(f"scheme is over {s.K} users, topology has {t.K}")
    rows = None if receivers is None else _validated_receiver_set(receivers, s.K)
    for seed in seeds:
        c = sample_channel(t, s.n, coherence, seed)
        total = _decodable_total(s, c) if totals else None
        report = None if rows is None else _reconstruction(s, c, rows)
        yield TrialRecord(total, report)


def dof_from_trials(s: LinearScheme, records) -> DofResult:
    """Modal sum DoF of scheme s over trial records that carry totals."""
    totals = tuple(record.total for record in records)
    modal, rate, unstable = aggregate_trials(totals)
    return DofResult(
        sum_dof=Fraction(modal, s.n), K=s.K, method=METHOD_LINEAR_SIM,
        trials=len(totals), trial_totals=totals,
        disagreement_rate=rate, unstable=unstable)


def scheme_from_schedule(t: Topology, a: MessageAssignment, sched: TdmaSchedule,
                         n: int | None = None) -> LinearScheme:
    """Embed a fractional TDMA schedule as a slot-partitioned linear scheme.

    Entry e gets a contiguous block of lambda_e * n slots; each message it
    serves sends fresh symbols from its server on those slots with one-hot
    precoder columns, so every served receiver sees its symbols
    interference-free.  n defaults to the least common denominator of the
    fractions and every lambda * n must come out integral.
    """
    validate_schedule(t, a, sched)
    fractions = [Fraction(lam) for _, lam in sched.entries]
    denom_lcm = math.lcm(1, *(f.denominator for f in fractions))
    if denom_lcm > SCHEDULE_LCM_LIMIT:
        raise InvalidParameterError(
            f"schedule denominators need n={denom_lcm} slots, above the limit {SCHEDULE_LCM_LIMIT}")
    if n is None:
        n = denom_lcm
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"slot count n must be a positive integer, got {n!r}")
    widths = []
    for f in fractions:
        w = f * n
        if w.denominator != 1:
            raise InvalidParameterError(
                f"fraction {f} times n={n} is not an integral slot count")
        widths.append(int(w))

    counts = [0] * t.K
    for (served_set, _), w in zip(sched.entries, widths):
        for i, _ in served_set.servers:
            counts[i - 1] += w
    precoders: dict[tuple[int, int], np.ndarray] = {}
    col_cursor = [0] * t.K
    slot = 0
    for (served_set, _), w in zip(sched.entries, widths):
        for i, j in served_set.servers:
            mat = precoders.setdefault((j, i), np.zeros((n, counts[i - 1]), dtype=complex))
            for k in range(w):
                mat[slot + k, col_cursor[i - 1] + k] = 1.0
            col_cursor[i - 1] += w
        slot += w
    return LinearScheme(n=n, assignment=a, symbol_counts=tuple(counts), precoders=precoders)


def build_stacked_matrix(s: LinearScheme, c: ChannelRealization, B) -> np.ndarray:
    """Stacked channel matrix of the receivers in B: n|B| x nK.

    Block (i, j) is the n x n diagonal matrix of H_{i,j} over the slots,
    and is zero exactly where the topology has no link.
    """
    _check_consistency(s, c)
    rows = _validated_receiver_set(B, s.K)
    out = np.zeros((s.n * len(rows), s.n * s.K), dtype=complex)
    for bi, i in enumerate(rows):
        for j in range(1, s.K + 1):
            out[bi * s.n:(bi + 1) * s.n, (j - 1) * s.n:j * s.n] = np.diag(c.h[i - 1, j - 1, :])
    return out


def _validated_receiver_set(B, K: int) -> tuple[int, ...]:
    rows = []
    for i in B:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= K:
            raise InvalidParameterError(f"receiver {i!r} outside 1..{K}")
        rows.append(i)
    if len(set(rows)) != len(rows):
        raise InvalidParameterError("receiver set lists some receiver twice")
    return tuple(sorted(rows))


def lemma1_check(s: LinearScheme, c: ChannelRealization, B) -> ReconstructionReport:
    """Reconstruction converse diagnostic for the receiver set B.

    s counts the transmitted symbols of messages outside B and r is the
    generic rank of their map into B's processed signals (the received
    signals with the exclusive transmitters' contributions removed).
    reconstructable reports whether every non-exclusive transmit signal,
    viewed over those same symbols, lies in the row space spanned by the
    processed signals plus the exclusive transmit signals.  Messages with
    zero symbols carry nothing, so they do not make a transmitter
    non-exclusive.
    """
    _check_consistency(s, c)
    return _reconstruction(s, c, _validated_receiver_set(B, s.K))


def _reconstruction(s: LinearScheme, c: ChannelRealization,
                    rows: tuple[int, ...]) -> ReconstructionReport:
    """lemma1_check of the sorted receiver set rows."""
    inside = set(rows)
    effective = [k for k in range(1, s.K + 1) if k not in inside and s.symbol_counts[k - 1] > 0]
    interfering = sorted(set().union(*(s.assignment.transmit_sets[k - 1] for k in effective)))
    exclusive = [j for j in range(1, s.K + 1) if j not in set(interfering)]

    cols = ~np.isin(s.column_messages, rows)
    s_count = int(np.count_nonzero(cols))

    # B's processed maps, then the interfering transmitters' maps, on the outside columns
    augmented = np.zeros((len(rows) + len(interfering), s.n, s_count), dtype=complex)
    receivers = np.asarray(rows, dtype=int) - 1
    for part in _receiver_blocks(s, len(rows)):
        augmented[part] = _received_maps(s, c, receivers[part])[:, :, cols]
    outside_at = np.cumsum(cols) - 1
    for sent, j in zip(augmented[len(rows):], interfering):
        for lo, hi, mat in s.transmit_runs[j - 1]:
            keep = cols[lo:hi]
            sent[:, outside_at[lo:hi][keep]] = mat[:, keep]
    augmented = augmented.reshape(len(augmented) * s.n, s_count)
    r = generic_rank(augmented[:len(rows) * s.n])
    # an exclusive transmitter carries no outside symbol, so its map on these
    # columns is zero: the known rows span what the processed rows span
    reconstructable = generic_rank(augmented) == r

    return ReconstructionReport(
        B=rows,
        exclusive_transmitters=tuple(exclusive),
        interfering_transmitters=tuple(interfering),
        s=s_count, r=r, deficiency=s_count - r,
        reconstructable=reconstructable)


def full_cooperation_assignment(K: int) -> MessageAssignment:
    """Every message at every transmitter (unbounded budget)."""
    everyone = frozenset(range(1, K + 1))
    return MessageAssignment(transmit_sets=tuple(everyone for _ in range(K)), budget=None)


def random_scheme(t: Topology, a: MessageAssignment, n: int, density: float,
                  seed: int | None = None) -> LinearScheme:
    """Random linear scheme: each message is active with probability `density`,
    active messages pick 1..n symbols and dense complex Gaussian precoders.

    Sampling happens before any channel draw and is deterministic given the
    seed.  density must lie in (0, 1].
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"slot count n must be a positive integer, got {n!r}")
    if n > RANDOM_SCHEME_N_LIMIT:
        raise ResourceLimitError(
            f"random schemes limited to n <= {RANDOM_SCHEME_N_LIMIT}, got n={n}",
            limit=RANDOM_SCHEME_N_LIMIT)
    if not 0 < density <= 1:
        raise InvalidParameterError(f"density must be in (0, 1], got {density!r}")
    if seed is None:
        raise InvalidParameterError("random_scheme requires an explicit seed")
    if a.K != t.K:
        raise InvalidInputError(f"assignment is over {a.K} users, topology has {t.K}")
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
    return LinearScheme(n=n, assignment=a, symbol_counts=tuple(counts), precoders=precoders)
