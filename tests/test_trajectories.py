import tracemalloc
from collections import Counter

import numpy as np
import pytest

import helpers as H
from nmchain.chains import (
    MARKOV_XOR,
    advanced_overlap_schedule,
    build_embedding,
    chain_schedule,
    custom_chain,
    markov_xor,
    markov_xor_kraus,
    overlap_schedule,
    repeated_xor,
    schedule_from_records,
    simulate,
    sqrt_xor,
)
from nmchain import chains, trajectories
from nmchain.gates import UnitaryGate, xor_gate
from nmchain.trajectories import (
    MAX_ENUMERATION_READOUTS,
    PRUNE_REQUIRED_ABOVE,
    TrajectoryRecord,
    UnsupportedScheduleError,
    branch_average,
    enumerate_branches,
    sample_ensemble,
    sample_trajectory,
)


def _rho0():
    return np.array([[0.62, 0.2 - 0.15j], [0.2 + 0.15j, 0.38]])


def test_record_probability():
    r = TrajectoryRecord((0, 1), np.log(0.25))
    assert r.probability == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("factory", [markov_xor, repeated_xor, sqrt_xor])
def test_enumeration_total_probability(factory):
    recs = enumerate_branches(factory(0.37), _rho0(), t_max=6, keep_states=False)
    assert len(recs) <= 2 ** 6
    total = sum(r.probability for r in recs)
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("factory", [repeated_xor, sqrt_xor])
def test_branch_average_equals_nonselective(factory):
    model = factory(0.41)
    recs = enumerate_branches(model, _rho0(), t_max=6)
    avg = branch_average(recs)
    want = simulate(model, _rho0(), steps=6)[-1].matrix
    assert np.abs(avg - want).max() < 1e-12


def test_branch_average_markov():
    model = markov_xor(0.52)
    recs = enumerate_branches(model, _rho0(), t_max=8)
    avg = branch_average(recs)
    cur = _rho0().astype(complex)
    from nmchain.chains import markov_xor_step
    for _ in range(8):
        cur = markov_xor_step(cur, 0.52)
    assert np.abs(avg - cur).max() < 1e-12


def test_enumeration_guards():
    model = markov_xor(0.3)
    with pytest.raises(ValueError):
        enumerate_branches(model, _rho0(), t_max=0)
    with pytest.raises(ValueError):
        enumerate_branches(model, _rho0(), t_max=MAX_ENUMERATION_READOUTS + 1)
    with pytest.raises(ValueError):
        enumerate_branches(model, _rho0(), t_max=PRUNE_REQUIRED_ABOVE + 1)  # no prune_below
    recs = enumerate_branches(model, _rho0(), t_max=PRUNE_REQUIRED_ABOVE + 1,
                              prune_below=1e-4, keep_states=False)
    assert sum(r.probability for r in recs) < 1.0 + 1e-12


def _four_per_step_schedule(horizon):
    # four molecules open and close at every step: 4 readouts a step
    return schedule_from_records([{"t": t, "mol": 4 * t + j} for t in range(horizon) for j in range(4)],
                                 horizon=horizon)


def test_enumeration_limits_count_readouts_not_steps(monkeypatch):
    # 16 steps of this schedule would be 2**64 branches; the limits refuse
    # it by its readouts before the walk starts
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk should not start")

    monkeypatch.setattr(trajectories, "_evolve_block", no_walk)
    model = custom_chain(xor_gate(), _four_per_step_schedule(16), phi=0.3)
    with pytest.raises(ValueError, match=f"beyond {PRUNE_REQUIRED_ABOVE} readouts a positive prune_below"):
        enumerate_branches(model, _rho0(), t_max=5)  # 20 readouts
    for prune_below in (0.0, 1e-4, 0.5):
        with pytest.raises(ValueError, match=f"at most {MAX_ENUMERATION_READOUTS} readouts, got 24"):
            enumerate_branches(model, _rho0(), t_max=6, prune_below=prune_below)


@pytest.mark.parametrize("t_max", [3, PRUNE_REQUIRED_ABOVE + 1])
@pytest.mark.parametrize("prune_below", [np.nan, np.inf, -np.inf, -1e-3, 1.0, 2.0])
def test_enumeration_rejects_invalid_prune_below(t_max, prune_below):
    # nan, inf and values >= 1 used to return no branches at all
    with pytest.raises(ValueError, match="prune_below"):
        enumerate_branches(repeated_xor(0.3), _rho0(), t_max=t_max, prune_below=prune_below)


def test_readout_drops_zero_probability_branch():
    # at phi = 0 the readout copies the system bit, so a system in |0> has no
    # branch 1: the walker keeps no state for it instead of dividing by zero
    rho = np.diag([1.0, 0.0]).astype(complex)
    recs = enumerate_branches(markov_xor(0.0), rho, t_max=1)
    assert [r.outcomes for r in recs] == [(0,)]
    assert recs[0].probability == 1.0
    assert np.array_equal(recs[0].conditional_states[-1].matrix, rho)
    ens = sample_ensemble(markov_xor(0.0), rho, t_max=1, n_samples=50, seed=4)
    assert ens.outcome_frequencies == ({0: 50},)


def test_enumeration_pruning_drops_mass():
    model = repeated_xor(0.2)
    full = enumerate_branches(model, _rho0(), t_max=5, keep_states=False)
    pruned = enumerate_branches(model, _rho0(), t_max=5, prune_below=1e-2, keep_states=False)
    assert len(pruned) < len(full)
    assert sum(r.probability for r in pruned) < sum(r.probability for r in full)
    kept = {r.outcomes for r in pruned}
    assert all(r.probability > 1e-2 for r in full if r.outcomes in kept)


def test_enumeration_keep_states_flag():
    recs = enumerate_branches(repeated_xor(0.3), _rho0(), t_max=2)
    assert all(len(r.conditional_states) == 2 for r in recs)
    bare = enumerate_branches(repeated_xor(0.3), _rho0(), t_max=2, keep_states=False)
    assert all(r.conditional_states is None for r in bare)
    with pytest.raises(ValueError):
        branch_average(bare)
    with pytest.raises(ValueError):
        branch_average([])


def test_window_enumeration_matches_nonselective():
    sched = advanced_overlap_schedule(5)
    model = custom_chain(xor_gate(), sched, phi=0.33)
    recs = enumerate_branches(model, _rho0(), t_max=5)
    avg = branch_average(recs)
    want = simulate(model, _rho0(), 5)[-1].matrix
    assert np.abs(avg - want).max() < 1e-12
    assert sum(r.probability for r in recs) == pytest.approx(1.0, abs=1e-12)


def test_window_enumeration_outcome_order():
    # two molecules close at step 1 of this schedule, molecule 1 ahead of
    # molecule 0 in the register; their outcomes are read in ascending id.
    # The sqrt-xor override makes the two molecules' statistics differ, so
    # a swapped order shows in the probabilities.
    recs = schedule_from_records(
        [{"t": 0, "mol": 0}, {"t": 0, "mol": 1}, {"t": 1, "mol": 1}, {"t": 1, "mol": 0, "gate": "sqrt-xor"}],
        horizon=2)
    model = custom_chain(xor_gate(), recs, phi=0.4)
    branches = enumerate_branches(model, _rho0(), t_max=2, keep_states=False)
    assert all(len(b.outcomes) == 2 for b in branches)
    total = sum(b.probability for b in branches)
    assert total == pytest.approx(1.0, abs=1e-12)
    want = H.window_branch_oracle(model, _rho0(), 2)
    assert {b.outcomes for b in branches} == {k for k, p in want.items() if p > 1e-300}
    for b in branches:
        assert abs(b.probability - want[b.outcomes]) <= 1e-12


def test_selective_window_rejects_straddler():
    model = custom_chain(xor_gate(), overlap_schedule(4), phi=0.3)
    with pytest.raises(UnsupportedScheduleError):
        enumerate_branches(model, _rho0(), t_max=3)
    # the full horizon closes every molecule, so it is allowed
    recs = enumerate_branches(model, _rho0(), t_max=4, keep_states=False)
    assert sum(r.probability for r in recs) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UnsupportedScheduleError):
        sample_trajectory(model, _rho0(), t_max=3, seed=1)
    with pytest.raises(ValueError):
        enumerate_branches(model, _rho0(), t_max=5)


def test_sample_trajectory_reproducible():
    model = sqrt_xor(0.45)
    a = sample_trajectory(model, _rho0(), t_max=7, seed=11, index=3)
    b = sample_trajectory(model, _rho0(), t_max=7, seed=11, index=3)
    assert a.outcomes == b.outcomes
    assert a.log_probability == b.log_probability
    c = sample_trajectory(model, _rho0(), t_max=7, seed=12, index=3)
    d = sample_trajectory(model, _rho0(), t_max=7, seed=11, index=4)
    assert len({a.outcomes, c.outcomes, d.outcomes}) >= 2  # streams differ


def test_sample_matches_enumerated_probability():
    model = repeated_xor(0.38)
    recs = {r.outcomes: r for r in enumerate_branches(model, _rho0(), t_max=5, keep_states=False)}
    s = sample_trajectory(model, _rho0(), t_max=5, seed=0)
    assert s.outcomes in recs
    assert s.log_probability == pytest.approx(recs[s.outcomes].log_probability, abs=1e-12)


def test_one_uniform_per_outcome_pin():
    # the sampler consumes exactly one uniform per readout; this pins the
    # equivalence between sequential draws and the vectorized block
    seeds = np.random.SeedSequence(entropy=5, spawn_key=(2,))
    g1 = np.random.Generator(np.random.PCG64(seeds))
    g2 = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=5, spawn_key=(2,))))
    assert np.array_equal(g1.random(6), np.array([g2.random() for _ in range(6)]))


@pytest.mark.parametrize("factory", [markov_xor, repeated_xor, sqrt_xor])
def test_ensemble_matches_sequential_sampling(factory):
    model = factory(0.36)
    n = 40
    ens = sample_ensemble(model, _rho0(), t_max=5, n_samples=n, seed=9)
    seq = [sample_trajectory(model, _rho0(), t_max=5, seed=9, index=i, keep_states=True)
           for i in range(n)]
    # the aggregate of the records, one at a time
    mean = np.stack([r.conditional_states[-1].matrix for r in seq]).mean(axis=0)
    freqs = tuple(Counter(r.outcomes[t] for r in seq) for t in range(5))
    assert ens.n_samples == n and ens.seed == 9
    assert np.array_equal(ens.mean_state.matrix, mean)
    assert ens.outcome_frequencies == freqs
    assert ens.outcomes.tolist() == [list(r.outcomes) for r in seq]
    assert ens.log_probabilities.tolist() == [r.log_probability for r in seq]


def _kraus_ops(model):
    """The paper's Kraus pair of a built-in model."""
    return markov_xor_kraus(model.phi) if model.kind == MARKOV_XOR else build_embedding(model)[1]


def _engine_blocks(model):
    """The blocks K_k of the V the walker compiles for a built-in model."""
    v = chains._step_isometry(model, chains._BUILTIN_SHAPES[model.kind])[0]
    return v.reshape(2, v.shape[1], v.shape[1])


@pytest.mark.parametrize("factory", [markov_xor, repeated_xor, sqrt_xor])
def test_ensemble_bitwise_matches_per_sample_oracle(factory):
    model = factory(0.36)
    n, t_max, seed = 10_000, 10, 21
    state0 = _rho0() if model.kind == MARKOV_XOR else np.kron(np.diag([1.0, 0.0]), _rho0())
    states, log_p, outcomes = H.evolve_block_oracle(
        _engine_blocks(model), state0.astype(complex), H.spawned_uniforms(seed, n, t_max))
    ens = sample_ensemble(model, _rho0(), t_max, n, seed)
    assert np.array_equal(ens.outcomes, outcomes)
    assert np.array_equal(ens.log_probabilities, log_p)
    assert np.array_equal(ens.mean_state.matrix, states.mean(axis=0))


@pytest.mark.parametrize("factory", [markov_xor, repeated_xor, sqrt_xor])
@pytest.mark.parametrize("phi", [0.0, -0.0, 0.4, np.nextafter(np.pi / 2, 0.0)])
def test_walker_children_match_kraus_sandwich(factory, phi):
    # the walker reads children off the step instrument, vec(rho) T_k^T;
    # each branch, unnormalised, must be the K_k rho K_k^dagger sandwich of
    # its outcomes, and a branch the walker drops must be one the
    # sandwiches leave empty
    model = factory(phi)
    ops = _kraus_ops(model)
    start = simulate(model, _rho0(), 0)[0].matrix
    for t_max in (1, 2, 3):
        states, log_p, outcomes, _, _ = trajectories._evolve_block(model, _rho0(), t_max)
        got = dict(zip(map(tuple, outcomes.tolist()), np.exp(log_p)[:, None, None] * states))
        want = {(): start}
        for _ in range(t_max):
            want = {key + (k,): child for key, m in want.items()
                    for k, child in enumerate(H.kraus_children(ops, m))}
        tol = 1e-15 * max(np.abs(m).max() for m in want.values())
        for key, m in want.items():
            assert np.abs(got.get(key, 0.0) - m).max() <= tol


def _dense_chain(phi):
    # one collision per molecule through a random dense (mol, sys) unitary:
    # every child entry sums several products, so a batch-dependent
    # summation order would show in its bits
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return custom_chain(UnitaryGate(q, ("mol", "sys"), label="dense"), chain_schedule(10), phi=phi)


@pytest.mark.parametrize("factory", [markov_xor, repeated_xor, sqrt_xor])
def test_builtin_walk_reads_one_instrument_per_call(monkeypatch, factory):
    # a built-in model's walk makes no window step: it forms the instrument
    # once, whatever the number of steps, samples or branches, and its start
    # state (evolve at 0 steps) forms none
    model = factory(0.36)
    want = sample_ensemble(model, _rho0(), 6, 50, seed=3)
    reads, real = [], chains.step_instrument

    def spy(m):
        reads.append(m)
        return real(m)

    def refuse(*args):
        raise AssertionError("a built-in walk ran a window step")

    monkeypatch.setattr(trajectories, "step_instrument", spy)
    monkeypatch.setattr(chains, "step_instrument", spy)
    monkeypatch.setattr(trajectories, "window_runs", refuse)
    got = sample_ensemble(model, _rho0(), 6, 50, seed=3)
    assert reads == [model]
    assert np.array_equal(got.log_probabilities, want.log_probabilities)
    assert len(enumerate_branches(model, _rho0(), 5, keep_states=False)) > 1
    assert reads == [model, model]


@pytest.mark.parametrize("case", ["random", "every-child", "one-child"])
def test_reached_keys_equal_np_unique(case):
    # the sampler's split: the keys that occur, ascending, and each key's
    # index among them, as np.unique(return_inverse=True) gives them
    rng = np.random.default_rng(71)
    for nodes in (1, 2, 7, 60, 200):
        size = 2 * nodes
        if case == "random":
            key = rng.integers(0, size, size=rng.integers(1, 3 * size))
        elif case == "every-child":
            key = rng.permutation(np.repeat(np.arange(size), rng.integers(1, 4, size=size)))
        else:
            key = np.full(rng.integers(1, 50), rng.integers(0, size))
        keys, inverse = trajectories._reached(key, size)
        want_keys, want_inverse = np.unique(key, return_inverse=True)
        assert keys.dtype == want_keys.dtype and inverse.dtype == want_inverse.dtype
        assert np.array_equal(keys, want_keys) and np.array_equal(inverse, want_inverse)
        if case == "every-child":
            assert len(keys) == size
        elif case == "one-child":
            assert len(keys) == 1 and not inverse.any()


@pytest.mark.parametrize("factory", [markov_xor, repeated_xor, sqrt_xor, _dense_chain],
                         ids=["markov_xor", "repeated_xor", "sqrt_xor", "dense"])
def test_walk_rows_do_not_depend_on_the_batch(factory):
    # a sample's row is fixed by its own uniforms, at any number of samples
    model = factory(0.4)
    uniforms = trajectories._uniform_block(11, 0, 2000, 10)
    full = trajectories._evolve_block(model, _rho0(), 10, uniforms)[:3]
    for n in (1, 7, 500):
        part = trajectories._evolve_block(model, _rho0(), 10, uniforms[:n])[:3]
        assert all(np.array_equal(a, b[:n]) for a, b in zip(part, full))
    for i in (6, 499, 1999):
        one = trajectories._evolve_block(model, _rho0(), 10, uniforms[i:i + 1])[:3]
        assert all(np.array_equal(a[0], b[i]) for a, b in zip(one, full))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_uniform_block_equals_numpy_streams(seed):
    want = H.spawned_uniforms(seed, 10_000, 3)
    assert np.array_equal(trajectories._uniform_block(seed, 0, 10_000, 3), want)
    assert np.array_equal(trajectories._uniform_block(seed, 5000, 5100, 3), want[5000:5100])


def test_advance_table_peak_memory_is_its_own_size():
    # 100,000 draws take a 3.2 MB table; a Python list of 128-bit ints on
    # the way to it peaked at 28.7 MB
    tracemalloc.start()
    try:
        trajectories._advance(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("seed", [7, 2**64, 2**128 + 5, 3**100])
@pytest.mark.parametrize("lo", [2**32 - 40, 2**64 - 40, 2**96 + 3])
def test_uniform_block_wide_seeds_and_spawn_keys(seed, lo):
    # blocks that straddle a word boundary mix a second (or third) spawn word
    # into some rows only; seeds past 4 words are mixed in after the pool fills
    got = trajectories._uniform_block(seed, lo, lo + 80, 12)
    assert np.array_equal(got, H.spawned_uniforms(seed, 80, 12, lo=lo))
    assert trajectories._uniform_block(seed, lo, lo + 1, 0).shape == (1, 0)


def test_uniform_block_passes_join_across_a_carry():
    # more rows than one pass, the carry into a second spawn word in the last pass
    n = trajectories._BLOCK_ROWS + 50
    lo = 2**32 - trajectories._BLOCK_ROWS - 10
    assert np.array_equal(trajectories._uniform_block(5, lo, lo + n, 4), H.spawned_uniforms(5, n, 4, lo=lo))


@pytest.mark.parametrize("index", [2**32 - 1, 2**32])
def test_sample_trajectory_index_past_one_word(index):
    model = sqrt_xor(0.4)
    ops = _engine_blocks(model)
    state0 = np.kron(np.diag([1.0, 0.0]), _rho0()).astype(complex)
    _, log_p, outcomes = H.evolve_block_oracle(ops, state0, H.spawned_uniforms(3, 1, 9, lo=index))
    rec = sample_trajectory(model, _rho0(), t_max=9, seed=3, index=index)
    assert list(rec.outcomes) == outcomes[0].tolist()
    assert rec.log_probability == log_p[0]


def test_negative_seed_or_index_raises():
    with pytest.raises(ValueError, match="non-negative"):
        sample_trajectory(markov_xor(0.3), _rho0(), t_max=2, seed=-1)
    with pytest.raises(ValueError, match="non-negative"):
        sample_trajectory(markov_xor(0.3), _rho0(), t_max=2, seed=0, index=-1)
    with pytest.raises(ValueError, match="non-negative"):
        sample_ensemble(markov_xor(0.3), _rho0(), t_max=2, n_samples=3, seed=-5)


def test_ensemble_mean_approaches_nonselective():
    model = repeated_xor(0.42)
    want = simulate(model, _rho0(), steps=4)[-1].matrix
    ens = sample_ensemble(model, _rho0(), t_max=4, n_samples=4000, seed=77)
    assert H.tdist(ens.mean_state.matrix, want) < 0.05


def test_ensemble_custom_model():
    # burst: two readouts per closing step, in a register order not their id order
    for sched in (advanced_overlap_schedule(4), H.burst_schedule(6)):
        model = custom_chain(xor_gate(), sched, phi=0.31)
        t_max = sched.horizon
        ens = sample_ensemble(model, _rho0(), t_max=t_max, n_samples=25, seed=2)
        assert ens.n_samples == 25
        assert ens.mean_state.slots == ("sys",)
        assert sum(ens.outcome_frequencies[0].values()) == 25
        seq = [sample_trajectory(model, _rho0(), t_max=t_max, seed=2, index=i) for i in range(25)]
        assert ens.outcomes.tolist() == [list(r.outcomes) for r in seq]
        assert ens.log_probabilities.tolist() == [r.log_probability for r in seq]


def test_ensemble_custom_model_checks_each_step_without_keeping_states(monkeypatch):
    # one check_states per step on the (nodes, D, D) stack; the only
    # DensityMatrix built is the mean state
    model = custom_chain(xor_gate(), advanced_overlap_schedule(6), phi=0.31)
    want = sample_ensemble(model, _rho0(), t_max=6, n_samples=40, seed=4)
    checked, built = [], []
    real_check, real_density = trajectories.check_states, trajectories.DensityMatrix

    def check(states):
        checked.append(states.shape)
        real_check(states)

    def density(m, slots):
        built.append(slots)
        return real_density(m, slots)

    monkeypatch.setattr(trajectories, "check_states", check)
    monkeypatch.setattr(trajectories, "DensityMatrix", density)
    ens = sample_ensemble(model, _rho0(), t_max=6, n_samples=40, seed=4)
    assert len(checked) == 6
    assert all(len(shape) == 3 and 1 <= shape[0] <= 40 for shape in checked)
    assert built == [("sys",)]
    assert ens.outcomes.tolist() == want.outcomes.tolist()
    assert ens.log_probabilities.tolist() == want.log_probabilities.tolist()


@pytest.mark.parametrize("layout", ["gap2", "burst"])
def test_kept_states_are_named_by_the_open_molecules(layout):
    # each conditional state after step t lives on the molecules open after
    # it, newest first, as the step oracle tracks them, then the system
    sched = advanced_overlap_schedule(8) if layout == "gap2" else H.burst_schedule(9)
    model = custom_chain(xor_gate(), sched, phi=0.31)
    want, open_ids = [], []
    for t in range(sched.horizon):
        _, open_ids = H.step_shape_oracle(sched, open_ids, t)
        want.append(tuple(f"mol{m}" for m in open_ids) + ("sys",))
    assert want[-1] == ("sys",) and max(map(len, want)) == 3
    records = enumerate_branches(model, _rho0(), sched.horizon)
    assert len(records) == 2 ** len(sched.spans()[0])
    for r in records:
        assert [s.slots for s in r.conditional_states] == want


def test_custom_sampling_never_names_the_register(monkeypatch):
    # a walk that keeps no states asks no step which molecules it leaves open
    model = custom_chain(xor_gate(), H.burst_schedule(9), phi=0.31)
    asked, open_after = [], chains.CollisionSchedule.open_after

    def spy(self, step, open_ids):
        asked.append(step)
        return open_after(self, step, open_ids)

    monkeypatch.setattr(chains.CollisionSchedule, "open_after", spy)
    ens = sample_ensemble(model, _rho0(), t_max=9, n_samples=40, seed=4)
    assert asked == []
    assert ens.mean_state.slots == ("sys",)
    # a walk that keeps its states asks once per step
    sample_trajectory(model, _rho0(), t_max=9, seed=4, keep_states=True)
    assert asked == list(range(9))


def test_custom_walk_raises_for_an_invalid_conditional_state(monkeypatch):
    # a non-Hermitian state inside the walk raises at its step, whether the
    # conditional states are kept or not
    model = custom_chain(xor_gate(), advanced_overlap_schedule(4), phi=0.31)
    runs = trajectories.window_runs

    def broken(model, steps):
        # the runs one step at a time; step 2's V is scaled by 1 + 1e-6j on one side
        for v, vh, closing, held, start, count in runs(model, steps):
            for t in range(start, start + count):
                yield (v * (1 + 1e-6j) if t == 2 else v), vh, closing, held, t, 1

    monkeypatch.setattr(trajectories, "window_runs", broken)
    for walk in (lambda: sample_ensemble(model, _rho0(), t_max=4, n_samples=8, seed=1),
                 lambda: enumerate_branches(model, _rho0(), t_max=4, keep_states=False),
                 lambda: enumerate_branches(model, _rho0(), t_max=4)):
        with pytest.raises(ValueError, match="not Hermitian"):
            walk()


def test_ensemble_stats_validation():
    with pytest.raises(ValueError):
        sample_ensemble(markov_xor(0.3), _rho0(), t_max=2, n_samples=0, seed=0)


def test_sample_trajectory_guards():
    with pytest.raises(ValueError):
        sample_trajectory(markov_xor(0.3), _rho0(), t_max=0, seed=0)
