"""Selective readout: branch enumeration and Monte Carlo sampling.

Every collision chain here ends each molecule's life with a computational
readout. For the built-in models that readout happens once per step (the
Kraus pair of the step), so a trajectory is a bit string of length t_max.
Custom schedules read a molecule out when its last collision is done;
outcomes are recorded in closure order (ascending molecule id within a
step).

Sampling is reproducible by construction: sample index i always uses the
generator spawned from (seed, spawn_key=(i,)), one uniform per outcome, so
ensembles are bit-identical whether drawn sequentially, batched, or split
over threads.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .chains import (
    CUSTOM,
    MARKOV_XOR,
    MEMORY_SLOT,
    SYSTEM_SLOT,
    WINDOW_QUBIT_CAP,
    ChainModel,
    build_embedding,
    closing_molecules,
    markov_xor_kraus,
    mol_slot,
    system_state,
    window_collide,
)
from .linalg import DensityMatrix, dagger, tensor

MAX_ENUMERATION_STEPS = 20
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
    """Ensemble aggregate; `sample_ensemble` also fills the per-sample
    `outcomes` (n_samples x readouts ints) and `log_probabilities`."""

    n_samples: int
    mean_state: DensityMatrix
    outcome_frequencies: tuple[dict, ...]
    seed: Optional[int] = None
    outcomes: Optional[np.ndarray] = None
    log_probabilities: Optional[np.ndarray] = None


def _spawned_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _builtin_setup(model: ChainModel):
    """Kraus operators and initial-state factory for the per-step readout."""
    if model.kind == MARKOV_XOR:
        kraus = markov_xor_kraus(model.phi)
        slots = (SYSTEM_SLOT,)

        def start(rho0):
            return system_state(rho0).matrix
    else:
        kraus = build_embedding(model)[1]
        slots = (MEMORY_SLOT, SYSTEM_SLOT)

        def start(rho0):
            mem = np.diag([1.0, 0.0]).astype(complex)
            return tensor(mem, system_state(rho0).matrix)
    return kraus, slots, start


def _check_selective_window(model: ChainModel, t_max: int):
    sched = model.schedule
    if t_max > sched.horizon:
        raise ValueError(f"t_max {t_max} exceeds the schedule horizon {sched.horizon}")
    for m in sched.molecules():
        if sched.first_event(m) < t_max <= sched.last_event(m):
            raise UnsupportedScheduleError(
                f"molecule {m} is still open at t={t_max}; its readout never "
                "happens inside the sampled window"
            )


def _project_out(m: np.ndarray, n_qubits: int, slot_pos: int, outcome: int) -> np.ndarray:
    """<outcome| m |outcome> on one slot; drops that slot, unnormalized."""
    t = m.reshape((2,) * (2 * n_qubits))
    t = np.take(t, outcome, axis=slot_pos)
    t = np.take(t, outcome, axis=slot_pos + n_qubits - 1)
    d = 2 ** (n_qubits - 1)
    return t.reshape(d, d)


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
    Pruning is mandatory beyond 16 steps; 20 is the hard limit.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if t_max > MAX_ENUMERATION_STEPS:
        raise ValueError(f"enumeration supports at most {MAX_ENUMERATION_STEPS} steps")
    if t_max > PRUNE_REQUIRED_ABOVE and prune_below <= 0.0:
        raise ValueError(f"beyond {PRUNE_REQUIRED_ABOVE} steps a positive prune_below is required")

    if model.kind == CUSTOM:
        return _enumerate_window(model, rho0, t_max, prune_below, keep_states)

    kraus, slots, start = _builtin_setup(model)
    branches = [(start(rho0), 0.0, (), ())]
    for _ in range(t_max):
        new = []
        for state, log_p, outcomes, states in branches:
            for label, op in zip(kraus.labels, kraus.operators):
                raw = op @ state @ dagger(op)
                p = float(np.trace(raw).real)
                if p <= 1e-300:
                    continue
                total = np.exp(log_p) * p
                if total <= prune_below:
                    continue
                nxt = raw / p
                kept = states + (DensityMatrix(nxt, slots),) if keep_states else ()
                new.append((nxt, log_p + np.log(p), outcomes + (label,), kept))
        branches = new
    return [
        TrajectoryRecord(outcomes, log_p, states if keep_states else None)
        for _, log_p, outcomes, states in branches
    ]


def _enumerate_window(model, rho0, t_max, prune_below, keep_states):
    _check_selective_window(model, t_max)
    sched = model.schedule
    start = system_state(rho0)
    branches = [(start.matrix, [SYSTEM_SLOT], [], 0.0, (), ())]
    for t in range(t_max):
        new = []
        for joint, slots, open_ids, log_p, outcomes, states in branches:
            j, sl, op = window_collide(joint, slots, open_ids, model, sched, t)
            partial = [(j, sl, op, log_p, outcomes)]
            for m in closing_molecules(sched, op, t):
                expanded = []
                for pj, psl, pop, plp, pout in partial:
                    pos = psl.index(mol_slot(m))
                    for lam in (0, 1):
                        raw = _project_out(pj, len(psl), pos, lam)
                        p = float(np.trace(raw).real)
                        if p <= 1e-300 or np.exp(plp) * p <= prune_below:
                            continue
                        nsl = [s for s in psl if s != mol_slot(m)]
                        nop = [x for x in pop if x != m]
                        expanded.append((raw / p, nsl, nop, plp + np.log(p), pout + (lam,)))
                partial = expanded
            for pj, psl, pop, plp, pout in partial:
                kept = ()
                if keep_states:
                    kept = states + (DensityMatrix(pj, tuple(psl)),)
                new.append((pj, psl, pop, plp, pout, kept))
        branches = new
    return [
        TrajectoryRecord(outcomes, log_p, states if keep_states else None)
        for _, _, _, log_p, outcomes, states in branches
    ]


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
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    rng = _spawned_rng(seed, index)
    if model.kind == CUSTOM:
        return _sample_window(model, rho0, t_max, rng, keep_states)
    kraus, slots, start = _builtin_setup(model)
    state = start(rho0)
    log_p = 0.0
    outcomes = []
    states = []
    for _ in range(t_max):
        raws = [op @ state @ dagger(op) for op in kraus.operators]
        ps = np.array([np.trace(r).real for r in raws])
        k = int(np.searchsorted(np.cumsum(ps), rng.random(), side="right"))
        k = min(k, len(raws) - 1)
        state = raws[k] / ps[k]
        log_p += float(np.log(ps[k]))
        outcomes.append(kraus.labels[k])
        if keep_states:
            states.append(DensityMatrix(state, slots))
    return TrajectoryRecord(tuple(outcomes), log_p, tuple(states) if keep_states else None)


def _sample_window(model, rho0, t_max, rng, keep_states):
    _check_selective_window(model, t_max)
    sched = model.schedule
    joint = system_state(rho0).matrix
    slots, open_ids = [SYSTEM_SLOT], []
    log_p = 0.0
    outcomes = []
    states = []
    for t in range(t_max):
        joint, slots, open_ids = window_collide(joint, slots, open_ids, model, sched, t)
        for m in closing_molecules(sched, open_ids, t):
            pos = slots.index(mol_slot(m))
            raw0 = _project_out(joint, len(slots), pos, 0)
            p0 = float(np.trace(raw0).real)
            lam = 0 if rng.random() < p0 else 1
            raw = raw0 if lam == 0 else _project_out(joint, len(slots), pos, 1)
            # the branch's own trace, not 1 - p0: an unlikely branch would
            # otherwise be renormalised with an error of ~1e-16 / p
            p = float(np.trace(raw).real)
            joint = raw / p
            slots = [s for s in slots if s != mol_slot(m)]
            open_ids = [x for x in open_ids if x != m]
            log_p += float(np.log(p))
            outcomes.append(lam)
        if keep_states:
            states.append(DensityMatrix(joint, tuple(slots)))
    return TrajectoryRecord(tuple(outcomes), log_p, tuple(states) if keep_states else None)


def _uniform_block(seed: int, lo: int, hi: int, draws: int) -> np.ndarray:
    out = np.empty((hi - lo, draws))
    for i in range(lo, hi):
        out[i - lo] = _spawned_rng(seed, i).random(draws)
    return out


def _evolve_block(ops: np.ndarray, state0: np.ndarray, uniforms: np.ndarray):
    n, t_max = uniforms.shape
    k_count = ops.shape[0]
    states = np.broadcast_to(state0, (n,) + state0.shape).copy()
    log_p = np.zeros(n)
    outcomes = np.zeros((n, t_max), dtype=np.int64)
    rows = np.arange(n)
    for t in range(t_max):
        # optimize=False: the contraction order must not depend on the batch
        # size, or splitting an ensemble over threads would change round-off
        raws = np.einsum("kab,nbc,kdc->knad", ops, states, ops.conj(), optimize=False)
        ps = np.einsum("knaa->kn", raws).real
        cum = np.cumsum(ps, axis=0)
        choice = np.minimum((uniforms[:, t][None, :] >= cum).sum(axis=0), k_count - 1)
        sel_p = ps[choice, rows]
        states = raws[choice, rows] / sel_p[:, None, None]
        log_p += np.log(sel_p)
        outcomes[:, t] = choice
    return states, log_p, outcomes


def sample_ensemble(
    model: ChainModel,
    rho0,
    t_max: int,
    n_samples: int,
    seed: int,
    threads: int = 1,
) -> EnsembleStats:
    """Monte Carlo ensemble with per-sample outcomes and log-probabilities.

    Built-in models are vectorized over samples, and `threads` splits the
    sample range into chunks; the calling thread runs the first chunk and
    `threads - 1` workers the rest. Custom models draw one sample at a time
    on the calling thread. The result is independent of `threads`: the
    stream of sample i is fixed by (seed, i) alone.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if model.kind == CUSTOM:
        records = [
            sample_trajectory(model, rho0, t_max, seed, index=i, keep_states=True)
            for i in range(n_samples)
        ]
        return replace(
            ensemble_stats(records, seed=seed),
            outcomes=np.array([r.outcomes for r in records], dtype=np.int64),
            log_probabilities=np.array([r.log_probability for r in records]),
        )
    kraus, slots, start = _builtin_setup(model)
    ops = np.stack(kraus.operators)
    state0 = start(rho0)
    threads = max(1, min(int(threads), n_samples))
    bounds = np.linspace(0, n_samples, threads + 1).astype(int)
    chunks = list(zip(bounds, bounds[1:]))

    def work(chunk):
        lo, hi = chunk
        uniforms = _uniform_block(seed, lo, hi, t_max)
        return _evolve_block(ops, state0, uniforms)

    # the pool starts a worker only on submit, so one chunk starts none
    with ThreadPoolExecutor(max_workers=max(1, len(chunks) - 1)) as pool:
        rest = pool.map(work, chunks[1:])
        results = [work(chunks[0]), *rest]

    states, log_p, outcomes = (np.concatenate(part) for part in zip(*results))
    mean = DensityMatrix(states.mean(axis=0), slots)
    freqs = []
    for t in range(t_max):
        counts = np.bincount(outcomes[:, t], minlength=len(kraus.labels))
        freqs.append({kraus.labels[k]: int(counts[k]) for k in range(len(kraus.labels)) if counts[k]})
    return EnsembleStats(n_samples, mean, tuple(freqs), seed, outcomes, log_p)


def ensemble_stats(records: Sequence[TrajectoryRecord], seed: Optional[int] = None) -> EnsembleStats:
    """Aggregate sampled records: equal-weight mean state and outcome counts."""
    if not records:
        raise ValueError("no records to aggregate")
    if any(r.conditional_states is None for r in records):
        raise ValueError("records need conditional_states; sample with keep_states=True")
    final = [r.conditional_states[-1] for r in records]
    slots = final[0].slots
    if any(f.slots != slots for f in final):
        raise ValueError("records end on different registers; cannot average")
    mean = DensityMatrix(np.stack([f.matrix for f in final]).mean(axis=0), slots)
    width = max(len(r.outcomes) for r in records)
    freqs = []
    for t in range(width):
        counts: dict = {}
        for r in records:
            if t < len(r.outcomes):
                counts[r.outcomes[t]] = counts.get(r.outcomes[t], 0) + 1
        freqs.append(counts)
    return EnsembleStats(len(records), mean, tuple(freqs), seed)
