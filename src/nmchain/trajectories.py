"""Selective readout: branch enumeration and Monte Carlo sampling.

Every collision chain here ends each molecule's life with a computational
readout, and every model reads it the same way: a step is one isometry V
(attach the fresh molecules, collide, leave the molecules read out at this
step in front), and outcome j of a readout is the block <j| V rho V^dagger |j>
on the front qubit. Every step is chains.window_collide, the step evolve
runs for custom models, with V compiled from the model's step shape. The
built-in models read one molecule out per step, so a trajectory is a bit
string of length t_max. Custom schedules read a molecule out when its last
collision is done; outcomes are recorded in closure order (ascending
molecule id within a step).

Enumeration and sampling walk the same readout tree. A conditional state
depends only on its outcome prefix, so the walk holds one state per
distinct prefix: the enumerator expands every child, the sampler only the
children that some sample reaches, and samples sharing a prefix share its
evolution.

Sampling is reproducible by construction: sample index i always draws from
the stream (seed, i), one uniform per outcome, so ensembles are bit-identical
whether drawn one sample at a time or batched. The streams are computed in
closed form on whole blocks of indices at once (SeedSequence hash, PCG64
seeding and LCG advance as array arithmetic), and equal numpy's
Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))).random() bit for bit.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chains import CUSTOM, ChainModel, evolve, window_collide
from .linalg import DensityMatrix, check_states

MAX_ENUMERATION_READOUTS = 20
PRUNE_REQUIRED_ABOVE = 16


class UnsupportedScheduleError(ValueError):
    """Raised when selective readout is requested for a schedule that leaves
    molecules unread inside the sampled window."""


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One readout branch: outcome labels and its log probability."""

    outcomes: tuple[int, ...]
    log_probability: float
    conditional_states: Optional[tuple[DensityMatrix, ...]] = None

    @property
    def probability(self) -> float:
        return float(np.exp(self.log_probability))


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """A sampled ensemble: its aggregate, and the per-sample `outcomes`
    (n_samples x readouts ints) and `log_probabilities`."""

    n_samples: int
    mean_state: DensityMatrix
    outcome_frequencies: tuple[dict, ...]
    seed: int
    outcomes: np.ndarray
    log_probabilities: np.ndarray


def _readout_count(model: ChainModel, t_max: int) -> int:
    """Readouts in the first t_max steps; a custom window must read out every
    molecule it opens."""
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if model.kind != CUSTOM:
        return t_max
    sched = model.schedule
    if t_max > sched.horizon:
        raise ValueError(f"t_max {t_max} exceeds the schedule horizon {sched.horizon}")
    ids, first, last = sched.spans()
    still_open = (first < t_max) & (t_max <= last)
    if still_open.any():
        raise UnsupportedScheduleError(
            f"molecule {ids[np.argmax(still_open)]} is still open at t={t_max}; its readout never "
            "happens inside the sampled window"
        )
    return int(np.count_nonzero(last < t_max))


# numpy's SeedSequence (pool size 4, uint32 hash) and PCG64 constants
_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(x: int) -> list[int]:
    """x split into little-endian uint32 words, as SeedSequence splits it."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    out = [x & _M32]
    while x := x >> 32:
        out.append(x & _M32)
    return out


def _hash_pairs(h: int, mult: int):
    """(xor, multiply) constants of successive hashmix calls of one hash chain."""
    while True:
        nxt = h * mult & _M32
        yield h, nxt
        h = nxt


def _columns(pairs, k: int) -> np.ndarray:
    """The next k constant pairs as two (k, 1) uint32 columns."""
    return np.array([next(pairs) for _ in range(k)], dtype=np.uint32).T[..., None]


def _hashmix(value, h):
    # on Python ints, or on uint32 arrays, which wrap by themselves
    value = (value ^ h[0]) * h[1] & _M32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


_GENERATE = _columns(_hash_pairs(_INIT_B, _MULT_B), 8)


def _seed_pool(seed: int, spawn_words: int):
    """The pool mixed from the seed alone, as a (4, 1) uint32 column, and the
    hash constants of the rounds of the first spawn_words spawn-key words.

    The seed's words, zero-padded to 4, fill the pool; words past 4 are mixed
    in after it is built, as numpy does.
    """
    a = _hash_pairs(_INIT_A, _MULT_A)
    run = _words(seed)
    pool = [_hashmix(w, next(a)) for w in (run + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(a)))
    for w in run[4:]:
        pool = [_mix(p, _hashmix(w, next(a))) for p in pool]
    return np.array(pool, dtype=np.uint32)[:, None], [_columns(a, 4) for _ in range(spawn_words)]


def _advance(draws: int) -> np.ndarray:
    """(2, 2, draws, 1) uint64: the high, then the low words of MUL^(k+1)
    and of sum_{j<=k} MUL^j, k = 1 .. draws."""
    mult, total, table = _PCG_MULT, 1, []
    for _ in range(draws):
        mult, total = mult * _PCG_MULT & _M128, (total * _PCG_MULT + 1) & _M128
        table.append((mult >> 64, total >> 64, mult & _M64, total & _M64))
    return np.array(table, dtype=np.uint64).reshape(draws, 4).T.reshape(2, 2, draws, 1)


def _dot128(x, c):
    """x[:, 0] c[:, 0] + x[:, 1] c[:, 1] mod 2**128, the 128-bit numbers held
    as their (high, low) uint64 words on the first axis. The high word of
    each low-word product is formed from 32-bit limbs."""
    (xh, xl), (ch, cl) = x, c
    x0, x1, c0, c1 = xl & _M32, xl >> 32, cl & _M32, cl >> 32
    t = x1 * c0 + (x0 * c0 >> 32)  # < 2**64, as is u
    u = x0 * c1 + (t & _M32)
    high = x1 * c1 + (t >> 32) + (u >> 32) + xh * cl + xl * ch
    low = xl * cl
    total = low[0] + low[1]
    return high[0] + high[1] + (total < low[0]), total


# rows per pass of _uniform_block: its uint64 temporaries stay about 15 MB at
# 20 draws whatever the block size
_BLOCK_ROWS = 8192


def _uniform_block(seed: int, lo: int, hi: int, draws: int) -> np.ndarray:
    """Row i - lo holds the first `draws` doubles of
    Generator(PCG64(SeedSequence(seed, spawn_key=(i,)))), i = lo .. hi-1.

    Computed in closed form on at most _BLOCK_ROWS rows at a time, bit for
    bit: numpy's SeedSequence hash, PCG64's seeding and each draw's LCG
    advance. A pass ends at the next multiple of 2**32 at the latest, so
    its rows differ only in the lowest spawn-key word.
    """
    _words(lo)  # raises for a negative index
    pool, rounds = _seed_pool(operator.index(seed), len(_words(max(lo, hi - 1))))
    advance = _advance(draws)
    out = np.empty((draws, hi - lo))
    a = lo
    while a < hi:
        b = min(a + _BLOCK_ROWS, hi, ((a >> 32) + 1) << 32)
        out[:, a - lo:b - lo] = _stream_rows(pool, rounds, advance, a, b)
        a = b
    return out.T


def _stream_rows(pool, rounds, advance, lo: int, hi: int) -> np.ndarray:
    """(draws, hi - lo) doubles of the streams i = lo .. hi-1, which share
    every spawn-key word but the lowest, from the seed's pool and spawn
    rounds and the advance table."""
    low = (np.arange(hi - lo, dtype=np.uint64) + (lo & _M32)).astype(np.uint32)
    for word, h in zip([low] + (_words(lo >> 32) if lo >> 32 else []), rounds):
        pool = _mix(pool, _hashmix(word, h))

    # generate_state(4, uint64) seeds PCG64 with initstate = w0:w1 and
    # inc = (w2:w3) << 1 | 1; its two seeding steps fold into the advance, so
    # draw k comes from MUL^(k+1) (initstate + inc) + inc * sum_{j<=k} MUL^j
    state = _hashmix(np.concatenate([pool, pool]), _GENERATE).astype(np.uint64)
    w0, w1, w2, w3 = state[0::2] | state[1::2] << 32
    inc_high, inc_low = w2 << 1 | w3 >> 63, w3 << 1 | 1
    low = w1 + inc_low
    high = w0 + inc_high + (low < w1)
    # rows run along the last axis, so each numpy inner loop spans the block
    s_high, s_low = _dot128(np.array([[high, inc_high], [low, inc_low]])[:, :, None], advance)

    # XSL-RR output, then numpy's double from its top 53 bits
    v, rot = s_high ^ s_low, s_high >> 58
    raw = v >> rot | v << ((64 - rot) & 63)
    return (raw >> 11) * 2.0 ** -53


def _evolve_block(model, rho0, t_max, uniforms=None, prune_below=0.0, keep_states=False):
    """Walk the readout tree for t_max steps, one readout at a time.

    The walk holds one state per distinct outcome prefix (a node), stacked
    as (nodes, D, D). Each step maps the stack through chains.window_collide,
    one V @ rho @ V^dagger product per node. Each readout of the step then
    splits every node into its children, the diagonal blocks <j| . |j> of
    its front qubit, with probabilities their traces.
    Without uniforms it keeps every child with p > 1e-300 and total
    probability above prune_below, node-major. With uniforms (samples x
    readouts), sample s takes the first child whose cumulative probability
    exceeds its uniform, and only children some sample reaches are kept.

    Custom models check every node's state after each step, once per stack.

    Returns one row per branch, or per sample when uniforms are given: the
    final states, log-probabilities, outcomes, the conditional states after
    each step (None unless keep_states), and the final register.
    """
    # the start state as a one-node stack
    states, model_slots = evolve(model, rho0, 0)
    open_ids = []

    def register():
        # open molecules (newest first) ahead of the model's own register
        return tuple(f"mol{m}" for m in open_ids) + model_slots

    log_p = np.zeros(1)
    outcomes = np.zeros((1, 0), dtype=np.int64)
    history = [()] if keep_states else None
    leaf = None if uniforms is None else np.zeros(len(uniforms), dtype=np.int64)

    for t in range(t_max):
        states, open_ids, closing = window_collide(states, open_ids, model, t)
        for _ in range(closing):
            # child j of each node: <j| states |j> on the front qubit, and its trace
            n, d = states.shape[:2]
            raws = states.reshape(n, 2, d // 2, 2, d // 2)[:, (0, 1), :, (0, 1), :]
            ps = np.trace(raws, axis1=-2, axis2=-1).real
            if uniforms is None:
                keep = (ps > 1e-300) & (np.exp(log_p) * ps > prune_below)
                parent, child = np.nonzero(keep.T)
            else:
                u = uniforms[:, outcomes.shape[1]]
                choice = np.minimum((u >= np.cumsum(ps, axis=0)[:, leaf]).sum(axis=0), len(ps) - 1)
                keys, leaf = np.unique(leaf * len(ps) + choice, return_inverse=True)
                parent, child = np.divmod(keys, len(ps))
            p = ps[child, parent]
            states = raws[child, parent] / p[:, None, None]
            log_p = log_p[parent] + np.log(p)
            outcomes = np.column_stack([outcomes[parent], child])
            if keep_states:
                history = [history[i] for i in parent]
        if model.kind == CUSTOM:
            check_states(states)
        if keep_states:
            slots = register()
            history = [h + (DensityMatrix(s, slots),) for h, s in zip(history, states)]
    rows = np.arange(len(states)) if uniforms is None else leaf
    kept = None if history is None else [history[i] for i in rows]
    return states[rows], log_p[rows], outcomes[rows], kept, register()


def _records(log_p: np.ndarray, outcomes: np.ndarray, history) -> list[TrajectoryRecord]:
    return [
        TrajectoryRecord(tuple(row), lp, None if history is None else history[i])
        for i, (row, lp) in enumerate(zip(outcomes.tolist(), log_p.tolist()))
    ]


def enumerate_branches(
    model: ChainModel,
    rho0,
    t_max: int,
    prune_below: float = 0.0,
    keep_states: bool = True,
) -> list[TrajectoryRecord]:
    """All readout branches up to t_max, with exact probabilities.

    Branches whose total probability falls to prune_below or less are
    dropped (the surviving records then under-count by the pruned mass).
    prune_below must lie in [0, 1). Pruning is mandatory beyond 16
    readouts (steps, for the built-in models); 20 is the hard limit.
    """
    if not 0.0 <= prune_below < 1.0:
        raise ValueError(f"prune_below must satisfy 0 <= prune_below < 1, got {prune_below!r}")
    readouts = _readout_count(model, t_max)
    if readouts > MAX_ENUMERATION_READOUTS:
        raise ValueError(f"enumeration supports at most {MAX_ENUMERATION_READOUTS} readouts, got {readouts}")
    if readouts > PRUNE_REQUIRED_ABOVE and prune_below == 0.0:
        raise ValueError(f"beyond {PRUNE_REQUIRED_ABOVE} readouts a positive prune_below is required")
    _, log_p, outcomes, history, _ = _evolve_block(
        model, rho0, t_max, prune_below=prune_below, keep_states=keep_states
    )
    return _records(log_p, outcomes, history)


def branch_average(records: Sequence[TrajectoryRecord]) -> np.ndarray:
    """Probability-weighted average of the final conditional states.

    Equals the non-selective state when no branch was pruned; returned as a
    raw array because pruning legitimately drops trace.
    """
    if not records:
        raise ValueError("no records to average")
    if any(r.conditional_states is None for r in records):
        raise ValueError("records were built without conditional states")
    out = None
    for r in records:
        m = r.conditional_states[-1].matrix * r.probability
        out = m if out is None else out + m
    return out


def sample_trajectory(
    model: ChainModel,
    rho0,
    t_max: int,
    seed: int,
    index: int = 0,
    keep_states: bool = False,
) -> TrajectoryRecord:
    """Draw one readout record; (seed, index) fixes it bit for bit."""
    uniforms = _uniform_block(seed, index, index + 1, _readout_count(model, t_max))
    _, log_p, outcomes, history, _ = _evolve_block(model, rho0, t_max, uniforms, keep_states=keep_states)
    return _records(log_p, outcomes, history)[0]


def sample_ensemble(
    model: ChainModel,
    rho0,
    t_max: int,
    n_samples: int,
    seed: int,
) -> EnsembleStats:
    """Monte Carlo ensemble with per-sample outcomes and log-probabilities.

    Sample i is drawn from the stream (seed, i) alone, so its row does not
    depend on n_samples or on the samples it is walked with. Custom models
    check every conditional state, once per prefix and step, without keeping
    them.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    uniforms = _uniform_block(seed, 0, n_samples, _readout_count(model, t_max))
    states, log_p, outcomes, _, slots = _evolve_block(model, rho0, t_max, uniforms)
    mean = DensityMatrix(states.mean(axis=0), slots)
    freqs = tuple({k: int(c) for k, c in enumerate(np.bincount(col)) if c} for col in outcomes.T)
    return EnsembleStats(n_samples, mean, freqs, seed, outcomes, log_p)
