import math
import warnings

import numpy as np
import pytest

import helpers as H
from nmchain import chains
from nmchain.chains import (
    CUSTOM,
    GATE_NAMES,
    MARKOV_XOR,
    REPEATED_XOR,
    SQRT_XOR,
    WINDOW_QUBIT_CAP,
    ChainModel,
    CollisionSchedule,
    advanced_overlap_schedule,
    build_embedding,
    chain_schedule,
    custom_chain,
    delta,
    evolve,
    markov_xor,
    markov_xor_fixed_point,
    markov_xor_kraus,
    markov_xor_step,
    overlap_schedule,
    repeated_xor,
    satellite_count,
    schedule_from_records,
    simulate,
    single_molecule_schedule,
    sqrt_xor,
    stationary_memory_vector,
    stationary_overlap,
    stationary_state,
    step_instrument,
    system_maps,
    system_marginals,
    window_collide,
    window_width,
)
from nmchain.channels import apply_kraus, map_from_probes, tomography_probes
from nmchain.gates import UnitaryGate, sqrt_xor_gate, xor_gate
from nmchain.linalg import DensityMatrix, partial_trace, tensor, trace_front
from nmchain.trajectories import sample_ensemble


def _rho(rng):
    return H.rand_rho(rng, 2)


def _mem0():
    return np.diag([1.0, 0.0]).astype(complex)


# ---- schedules ------------------------------------------------------------

def test_collision_event_validation():
    CollisionSchedule([0], [0], 1)
    CollisionSchedule([2], [5], 3, gates=[GATE_NAMES.index("sqrt-xor")])
    for steps, molecules, gates in (([-1], [0], None), ([0], [-2], None), ([0], [0], [3]), ([0], [0], [-1])):
        with pytest.raises(ValueError):
            CollisionSchedule(steps, molecules, 1, gates)
    with pytest.raises(ValueError):
        schedule_from_records([{"t": 0, "mol": 0, "gate": "hadamard"}])


def test_schedule_sorting_keeps_intra_step_order():
    sched = CollisionSchedule([1, 0, 1], [9, 3, 2], horizon=2)
    assert H.schedule_records(sched) == [{"t": 0, "mol": 3}, {"t": 1, "mol": 9}, {"t": 1, "mol": 2}]
    assert sched.events_at(1)[0].tolist() == [9, 2]


def test_schedule_validation():
    with pytest.raises(ValueError):
        CollisionSchedule([3], [0], horizon=3)  # outside horizon
    with pytest.raises(ValueError):
        CollisionSchedule([0, 0], [0, 0], horizon=1)
    with pytest.raises(ValueError):
        CollisionSchedule([], [], horizon=0)


def test_schedule_queries_and_records():
    sched = overlap_schedule(4)
    assert sched.spans()[0].tolist() == [0, 1, 2, 3]
    assert sched.first_event(2) == 1 and sched.last_event(2) == 2
    with pytest.raises(ValueError):
        sched.first_event(99)
    recs = H.schedule_records(sched)
    assert all(set(r) <= {"t", "mol", "gate"} for r in recs)
    again = schedule_from_records(recs, horizon=sched.horizon)
    assert H.schedule_records(again) == recs


def test_schedule_from_records_validation():
    good = [{"t": 0, "mol": 0}, {"t": 1, "mol": 0, "gate": "xor"}]
    sched = schedule_from_records(good)
    assert sched.horizon == 2
    with pytest.raises(ValueError):
        schedule_from_records([])
    with pytest.raises(ValueError):
        schedule_from_records([{"t": 0}])
    with pytest.raises(ValueError):
        schedule_from_records([{"t": 0, "mol": 0, "nope": 1}])
    with pytest.raises(ValueError):
        schedule_from_records([{"t": True, "mol": 0}])
    with pytest.raises(ValueError):
        schedule_from_records([{"t": 0.5, "mol": 0}])


def test_builtin_schedule_shapes():
    ch = chain_schedule(5)
    assert (ch.event_steps.tolist(), ch.event_molecules.tolist()) == (list(range(5)), list(range(5)))
    sm = single_molecule_schedule(4)
    assert (sm.event_steps.tolist(), sm.event_molecules.tolist()) == (list(range(4)), [0] * 4)
    ov = overlap_schedule(4)
    spans = {m: (ov.first_event(m), ov.last_event(m)) for m in ov.spans()[0].tolist()}
    assert spans == {0: (0, 0), 1: (0, 1), 2: (1, 2), 3: (2, 3)}
    # fresh molecule collides before the one finishing its pair
    assert ov.events_at(1)[0].tolist() == [2, 1]
    av = advanced_overlap_schedule(6)
    spans = {m: (av.first_event(m), av.last_event(m)) for m in av.spans()[0].tolist()}
    assert spans == {0: (0, 0), 1: (1, 1), 2: (0, 2), 3: (1, 3), 4: (2, 4), 5: (3, 5)}
    assert av.events_at(2)[0].tolist() == [4, 2]
    for sched in (ch, sm, ov, av):
        assert not sched.event_gates.any()


def test_satellite_count_and_window_width():
    assert satellite_count(chain_schedule(6)) == 0
    assert satellite_count(single_molecule_schedule(6)) == 1
    assert satellite_count(overlap_schedule(6)) == 1
    assert satellite_count(advanced_overlap_schedule(6)) == 2
    assert window_width(chain_schedule(6)) == 2
    assert window_width(single_molecule_schedule(6)) == 2
    assert window_width(overlap_schedule(6)) == 3
    assert window_width(advanced_overlap_schedule(6)) == 4


def test_schedule_index_matches_linear_scans():
    rng = np.random.default_rng(12)
    for _ in range(400):
        horizon = int(rng.integers(1, 12))
        pairs = {(int(rng.integers(0, 9)), int(rng.integers(0, horizon)))
                 for _ in range(int(rng.integers(1, 25)))}
        events = [(t, m) for m, t in pairs]
        rng.shuffle(events)
        sched = CollisionSchedule(*zip(*events), horizon)
        assert tuple(sched.spans()[0].tolist()) == H.scan_molecules(sched)
        for m in range(10):
            span = H.scan_span(sched, m)
            if span is None:
                with pytest.raises(ValueError):
                    sched.first_event(m)
                with pytest.raises(ValueError):
                    sched.last_event(m)
            else:
                assert (sched.first_event(m), sched.last_event(m)) == span
        for t in range(horizon + 1):
            molecules, gates = sched.events_at(t)
            got = tuple(zip(molecules.tolist(), [GATE_NAMES[g] for g in gates.tolist()]))
            assert got == H.scan_events_at(sched, t)
        # beside each event: whether it is its molecule's last
        assert sched._closes.tolist() == [H.scan_span(sched, r["mol"])[1] == r["t"] for r in H.schedule_records(sched)]
        assert satellite_count(sched) == H.scan_satellite_count(sched)
        assert window_width(sched) == H.scan_window_width(sched)


@pytest.mark.parametrize("events, horizon, message", [
    # the first offending event in listed order decides the message
    ([(0, 0), (5, 1), (0, 0)], 3, "event at step 5 outside horizon 3"),
    ([(0, 0), (0, 0), (5, 1)], 3, "molecule 0 listed twice at step 0"),
    ([(1, 2), (0, 2), (1, 2), (0, 2)], 2, "molecule 2 listed twice at step 1"),
    ([(2, 0)], 2, "event at step 2 outside horizon 2"),
    ([(0, 0)], 0, "horizon must be positive, got 0"),
    # a negative step or molecule id wins over any horizon or repeat fault
    ([(0, 0), (-1, 0)], 1, "negative step -1"),
    ([(5, 0), (0, 0), (0, 0), (0, -3), (-1, 0)], 3, "negative molecule id -3"),
    ([(0, -1)], 0, "negative molecule id -1"),
])
def test_schedule_validation_messages(events, horizon, message):
    with pytest.raises(ValueError) as info:
        CollisionSchedule([t for t, _ in events], [m for _, m in events], horizon)
    assert str(info.value) == message
    recs = [{"t": t, "mol": m} for t, m in events]
    with pytest.raises(ValueError) as info:
        schedule_from_records(recs, horizon=horizon)
    assert str(info.value) == message


@pytest.mark.parametrize("steps, molecules, gates, message", [
    ([0, 1], [0, 1], [0, 3], "unknown gate code 3; choose from 0 to 2"),
    ([0, -1], [0, 1], [-1, 0], "unknown gate code -1; choose from 0 to 2"),
    ([0, 1], [0], None, "steps, molecules and gates must be 1-D arrays of one length, got shapes (2,), (1,) and (2,)"),
    ([0, 1], [0, 1], [0], "steps, molecules and gates must be 1-D arrays of one length, got shapes (2,), (2,) and (1,)"),
    ([[0, 1]], [[0, 1]], None, "steps, molecules and gates must be 1-D arrays of one length, got shapes (1, 2), (1, 2) and (1, 2)"),
    (0, 0, None, "steps, molecules and gates must be 1-D arrays of one length, got shapes (), () and ()"),
])
def test_schedule_arrays_validation_messages(steps, molecules, gates, message):
    # faults only the arrays can hold: records name gates, one record per event
    with pytest.raises(ValueError) as info:
        CollisionSchedule(steps, molecules, 2, gates)
    assert str(info.value) == message


@pytest.mark.parametrize("steps, molecules, gates, message", [
    ([0.7], [0], None, "steps must be integers, got dtype float64"),
    ([True], [0], None, "steps must be integers, got dtype bool"),
    ([0], np.array([0], dtype=object), None, "molecules must be integers, got dtype object"),
    ([0], [False], None, "molecules must be integers, got dtype bool"),
    ([0], [0], [1.0], "gates must be integers, got dtype float64"),
    (np.array([2**63], dtype=np.uint64), [0], None, "steps must be below 2**63"),
])
def test_schedule_arrays_refuse_non_integer_dtypes(steps, molecules, gates, message):
    # a cast would truncate 0.7 to step 0 and read True as step 1
    with pytest.raises(ValueError) as info:
        CollisionSchedule(steps, molecules, 2, gates)
    assert str(info.value) == message


def test_schedule_arrays_take_any_integer_dtype():
    sched = CollisionSchedule(np.array([1, 0], dtype=np.uint8), np.array([3, 2], dtype=np.int32), 2,
                              np.array([0, 1], dtype=np.int16))
    assert H.schedule_records(sched) == [{"t": 0, "mol": 2, "gate": "xor"}, {"t": 1, "mol": 3}]
    assert all(a.dtype == np.int64 for a in (sched.event_steps, sched.event_molecules, sched.event_gates))
    empty = CollisionSchedule([], [], 3)  # np.asarray([]) is float64, but holds no value to misread
    assert empty.event_steps.dtype == np.int64 and empty.event_steps.size == 0


def test_schedule_arrays_are_sorted_read_only_views():
    codes = [GATE_NAMES.index(g) for g in ("sqrt-xor", None, "xor", None)]
    sched = CollisionSchedule([2, 0, 2, 0], [4, 3, 1, 4], 3, gates=codes)
    assert sched.event_steps.tolist() == [0, 0, 2, 2]
    assert sched.event_molecules.tolist() == [3, 4, 4, 1]
    assert [GATE_NAMES[g] for g in sched.event_gates.tolist()] == [None, None, "sqrt-xor", "xor"]
    assert H.schedule_records(sched) == [
        {"t": 0, "mol": 3}, {"t": 0, "mol": 4}, {"t": 2, "mol": 4, "gate": "sqrt-xor"}, {"t": 2, "mol": 1, "gate": "xor"}]
    ids, first, last = sched.spans()
    assert (ids.tolist(), first.tolist(), last.tolist()) == ([1, 3, 4], [2, 0, 0], [2, 0, 2])
    molecules, gates = sched.events_at(2)
    assert (molecules.tolist(), gates.tolist()) == ([4, 1], codes[::2])
    assert [a.size for a in sched.events_at(1)] == [0, 0]
    for a in (sched.event_steps, sched.event_molecules, sched.event_gates, ids, first, last, molecules, gates):
        with pytest.raises(ValueError):
            a[0] = 7
    again = schedule_from_records(H.schedule_records(sched), horizon=3)
    assert H.schedule_records(again) == H.schedule_records(sched)


def test_schedule_neither_freezes_nor_aliases_the_callers_arrays():
    # already sorted int64 input, the case a view would alias
    steps, molecules, gates = (np.array(a, dtype=np.int64) for a in ([0, 1, 1], [1, 0, 2], [0, 2, 1]))
    sched = CollisionSchedule(steps, molecules, 2, gates)
    want = H.schedule_records(sched), [a.tolist() for a in sched.spans()], sched.events_at(1)[0].tolist()
    for a in (steps, molecules, gates):
        assert a.flags.writeable
        a[:] = 0
    assert (H.schedule_records(sched), [a.tolist() for a in sched.spans()], sched.events_at(1)[0].tolist()) == want
    assert want[0] == [{"t": 0, "mol": 1}, {"t": 1, "mol": 0, "gate": "sqrt-xor"}, {"t": 1, "mol": 2, "gate": "xor"}]


@pytest.mark.parametrize("figure, build", [
    ("1a", chain_schedule), ("1b", overlap_schedule), ("1d", single_molecule_schedule),
    ("5", advanced_overlap_schedule),
])
def test_builtin_layouts_list_the_events_of_the_loops(figure, build):
    for horizon in (1, 2, 3, 4, 7, 30):
        sched = build(horizon)
        assert sched.horizon == horizon
        assert H.schedule_records(sched) == H.builtin_layout_records(figure, horizon)
    with pytest.raises(ValueError, match="horizon must be positive"):
        build(0)


def test_census_cost_does_not_grow_with_the_horizon():
    # the census reads the sorted first and last steps; a per-step sweep
    # would allocate or loop over all 10**12 steps
    sched = schedule_from_records([{"t": 0, "mol": 0}, {"t": 10**12, "mol": 0}])
    assert satellite_count(sched) == 1
    assert window_width(sched) == 2


# ---- model construction ---------------------------------------------------

def test_model_factories_and_validation():
    assert markov_xor(0.3).kind == MARKOV_XOR
    assert repeated_xor(0.3).kind == REPEATED_XOR
    assert sqrt_xor(0.3).kind == SQRT_XOR
    cm = custom_chain(xor_gate(), overlap_schedule(3), phi=0.3)
    assert cm.kind == CUSTOM
    with pytest.raises(ValueError):
        ChainModel("florb", 0.1)
    with pytest.raises(ValueError):
        ChainModel(CUSTOM, 0.1)  # missing gate and schedule
    with pytest.raises(ValueError):
        ChainModel(REPEATED_XOR, 0.1, schedule=overlap_schedule(3))
    with pytest.raises(ValueError):
        ChainModel(MARKOV_XOR, np.inf)


def test_collision_gate_dispatch():
    assert markov_xor(0.2).collision_gate().label == "xor"
    assert repeated_xor(0.2).collision_gate().label == "xor"
    assert sqrt_xor(0.2).collision_gate().label == "sqrt-xor"


# ---- single-collision model ------------------------------------------------

def test_markov_step_matches_kraus_channel():
    rng = np.random.default_rng(0)
    for phi in (0.1, np.pi / 8, 0.7):
        ks = markov_xor_kraus(phi)
        c, s = np.cos(phi), np.sin(phi)
        assert np.abs(ks[0] - np.diag([c, s])).max() < 1e-15
        assert np.abs(ks[1] - np.diag([s, c])).max() < 1e-15
        for _ in range(5):
            r = _rho(rng)
            assert np.abs(markov_xor_step(r, phi) - apply_kraus(ks, r)).max() < 1e-15


def test_markov_step_structure():
    r = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    phi = 0.45
    out = markov_xor_step(r, phi)
    assert out[0, 0] == r[0, 0] and out[1, 1] == r[1, 1]
    assert out[0, 1] == pytest.approx(np.sin(2 * phi) * r[0, 1], abs=1e-16)
    dm = DensityMatrix(r, ("sys",))
    out_dm = markov_xor_step(dm, phi)
    assert isinstance(out_dm, DensityMatrix)


def _bitwise_equal(a, b):
    """Equal bit for bit, so also in the sign of every zero."""
    a, b = np.ascontiguousarray(a, dtype=complex), np.ascontiguousarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _exact_real_diagonals(run):
    """A per-step run as evolve records it: every state after t = 0 with the
    imaginary parts of its diagonal set to 0.0."""
    out = [np.array(m, dtype=complex) for m in run]
    for m in out[1:]:
        np.fill_diagonal(m.imag, 0.0)
    return out


def _markov_scalar_step(m, phi):
    # the per-state step as numpy scalars form it
    k = np.sin(2.0 * phi)
    return np.array([[m[0, 0], k * m[0, 1]], [k * m[1, 0], m[1, 1]]], dtype=complex)


def test_markov_step_forms_the_scalar_products():
    # signed zeros, a subnormal that underflows to zero, and random entries
    parts = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -0.3, 0.7]
    coherences = [complex(x, y) for x in parts for y in parts]
    stack = np.array([[[0.5, c], [np.conj(c), 0.5]] for c in coherences])
    stack[:, 1, 0] = coherences[::-1]  # the step does not rely on Hermiticity
    for phi in (0.1, 0.3, 0.7, 1.2, 0.0, -0.0, np.pi / 4):
        got = markov_xor_step(stack, phi)
        assert all(_bitwise_equal(g, _markov_scalar_step(m, phi)) for g, m in zip(got, stack))
        assert all(_bitwise_equal(markov_xor_step(m, phi), g) for g, m in zip(got, stack))
    with pytest.raises(ValueError, match="single qubit"):
        markov_xor_step(np.eye(4) / 4, 0.3)


def test_markov_powers_match_the_step_bit_for_bit():
    # the coherences of test_markov_step_forms_the_scalar_products, stepped
    # until the small ones underflow, and random stacks
    rng = np.random.default_rng(65)
    parts = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e-300, -1e-300, -0.3, 0.7]
    coherences = [complex(x, y) for x in parts for y in parts]
    edge = np.array([[[0.5, c], [np.conj(c), 0.5]] for c in coherences])
    edge[:, 1, 0] = coherences[::-1]
    rand = rng.normal(size=(3, 5, 2, 2)) + 1j * rng.normal(size=(3, 5, 2, 2))
    for phi in (0.1, 0.7, 1.2, 0.0, -0.0, np.pi / 4, -np.pi / 4, np.pi / 2, 1e-3, -1e-3, 1e-160, -2.9):
        for stack, steps in ((edge, 600), (rand, 80), (edge[7], 30)):
            want = [stack]
            for _ in range(steps):
                want.append(markov_xor_step(want[-1], phi))
            assert _bitwise_equal(chains._markov_powers(stack, phi, steps), np.stack(want, -3))


def test_markov_fixed_point():
    r = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    fp = markov_xor_fixed_point(r, 0.3)
    assert np.allclose(fp.matrix, np.diag([0.6, 0.4]))
    walked = r.copy()
    for _ in range(300):
        walked = markov_xor_step(walked, 0.3)
    assert H.tdist(walked, fp.matrix) < 1e-12
    with pytest.raises(ValueError):
        markov_xor_fixed_point(r, np.pi / 4)


# ---- satellite embedding ---------------------------------------------------

@pytest.mark.parametrize("kind,factory", [("double", repeated_xor), ("split", sqrt_xor)])
def test_build_embedding_matches_oracle(kind, factory):
    for phi in (0.3, np.pi / 6, 1.0):
        model = factory(phi)
        step, kraus = build_embedding(model)
        assert step.slot_roles == ("mol", "mem", "sys")
        want_u = H.step_unitary(phi, kind, with_prep=False)
        assert np.abs(step.matrix - want_u).max() < 1e-15
        w0, w1 = H.kraus_pair(phi, kind)
        assert np.abs(kraus[0] - w0).max() < 1e-14
        assert np.abs(kraus[1] - w1).max() < 1e-14
    with pytest.raises(ValueError):
        build_embedding(markov_xor(0.3))


_COMPILED_PHIS = (0.0, -0.0, np.pi / 4, -np.pi / 4, np.nextafter(np.pi / 2, 0.0), -np.nextafter(np.pi / 2, 0.0),
                  *np.linspace(-7.0, 7.0, 141))


def _builtin_isometry(model):
    return chains._step_isometry(model, chains._BUILTIN_SHAPES[model.kind])


def test_compiled_builtin_step_is_the_kraus_pair():
    # the built-in step shapes compile to V = sum_k |k> (x) K_k of the
    # paper's Kraus pairs: markov_xor_kraus, and build_embedding's gate
    # sandwich U_c SWAP U_c. xor steps sum no two nonzero terms, so the
    # values agree exactly, though markov-xor's two forms may give a zero
    # opposite signs. V's sqrt-xor entries are sums formed in another order.
    for phi in _COMPILED_PHIS:
        for factory in (markov_xor, repeated_xor, sqrt_xor):
            model = factory(float(phi))
            v, vh = _builtin_isometry(model)
            ops = markov_xor_kraus(phi) if factory is markov_xor else build_embedding(model)[1]
            want = ops.reshape(v.shape)
            assert _bitwise_equal(vh, v.conj().T)
            if factory is markov_xor:
                assert np.array_equal(v, want)
            elif factory is repeated_xor:
                assert _bitwise_equal(v, want)
            else:
                assert np.abs(v - want).max() <= 1e-15


def test_step_instrument_is_the_kraus_pair_transfer_blocks():
    # T_j = K_j (x) conj(K_j) of the paper's Kraus pairs. The compiled
    # blocks miss the pairs by at most 1e-15 (sqrt-xor, above) and no entry
    # exceeds 1 in modulus, so each product misses by at most 2e-15 plus
    # its own rounding: 3e-15 bounds it
    for phi in _COMPILED_PHIS:
        for factory in (markov_xor, repeated_xor, sqrt_xor):
            model = factory(float(phi))
            ops = markov_xor_kraus(phi) if factory is markov_xor else build_embedding(model)[1]
            got = step_instrument(model)
            d = ops.shape[-1]
            assert got.shape == (2, d * d, d * d) and got.dtype == complex
            for block, k in zip(got, ops):
                assert np.abs(block - np.kron(k, k.conj())).max() <= 3e-15


def test_step_instrument_sums_to_the_inline_transfer_matrix():
    # _step_powers takes P = (T_0 + T_1)^T; it is the P it formed inline
    # from the compiled blocks before, bit for bit, signed zeros included
    for phi in _COMPILED_PHIS:
        for factory in (markov_xor, repeated_xor, sqrt_xor):
            model = factory(float(phi))
            v = _builtin_isometry(model)[0]
            want = H.transfer_matrix_oracle(v.reshape(2, v.shape[1], v.shape[1]))
            got = step_instrument(model)
            assert _bitwise_equal((got[0] + got[1]).T, want)
            assert _bitwise_equal(got.sum(0).T, want)


def test_step_instrument_and_map_from_probes_share_the_vec():
    # the step channel S = T_0 + T_1 acts on the row-major vec; process
    # tomography of S through the probes must give S back in the same layout
    for phi in (0.3, 0.77, 1.2):
        for factory in (markov_xor, repeated_xor, sqrt_xor):
            s = step_instrument(factory(phi)).sum(0)
            d = math.isqrt(s.shape[0])
            outputs = [(p.reshape(-1) @ s.T).reshape(d, d) for p in tomography_probes(d)]
            assert np.abs(map_from_probes(outputs, d) - s).max() <= 1e-15


def test_step_instrument_is_read_only_and_refuses_custom_models():
    for factory in (markov_xor, repeated_xor, sqrt_xor):
        got = step_instrument(factory(0.3))
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0, 0] = 7
    custom = custom_chain(xor_gate(), overlap_schedule(4), phi=0.3)
    with pytest.raises(ValueError, match="custom model has no one step instrument"):
        step_instrument(custom)
    # and window_collide steps custom models alone
    r0 = np.diag([1.0, 0.0]).astype(complex)
    for factory in (markov_xor, repeated_xor, sqrt_xor):
        with pytest.raises(ValueError, match="steps through step_instrument"):
            window_collide(r0, [], factory(0.3), 0)


def test_builtin_steps_never_build_the_kraus_pair(monkeypatch):
    # evolve, system_maps and the walker reach a built-in step through
    # _step_isometry alone
    def refuse(*args):
        raise AssertionError("a built-in step built its Kraus pair")

    for name in ("build_embedding", "markov_xor_kraus", "kraus_from_collision"):
        monkeypatch.setattr(chains, name, refuse)
    r0 = _rho(np.random.default_rng(48))
    for factory in (markov_xor, repeated_xor, sqrt_xor):
        model = factory(0.52)
        evolve(model, r0, 5)
        system_maps(model, 3)
        sample_ensemble(model, r0, 4, 20, seed=1)


def test_build_embedding_embeds_only_the_collision_gate():
    # the step is the product of the three embedded gates, the collision
    # gate on its own roles around the swap of the fresh molecule into the
    # memory slot, bit for bit
    from nmchain.channels import kraus_from_collision
    from nmchain.gates import embed, molecule_state, swap_gate

    register = ("mol", "mem", "sys")
    for factory, gate in ((repeated_xor, xor_gate()), (sqrt_xor, sqrt_xor_gate())):
        for phi in (0.2345678, -0.0, 1.3456789):
            step, kraus = build_embedding(factory(phi))
            u = embed(gate, register, gate.slot_roles).matrix
            want = u @ embed(swap_gate(), register, ("mol", "mem")).matrix @ u
            assert _bitwise_equal(step.matrix, want)
            want = kraus_from_collision(UnitaryGate(want, register), molecule_state(phi))
            assert _bitwise_equal(kraus, want)


@pytest.mark.parametrize("factory, recursion", [
    (repeated_xor, H.recursion_repeated), (sqrt_xor, H.recursion_sqrt),
], ids=["repeated_xor", "sqrt_xor"])
def test_evolve_matches_the_recursion_oracle(factory, recursion):
    rng = np.random.default_rng(42)
    phi = 0.31
    model = factory(phi)
    # the compound step evolve runs, on random (entangled) compound states
    kraus = build_embedding(model)[1]
    for _ in range(10):
        r = H.rand_rho(rng, 4)
        assert np.abs(apply_kraus(kraus, r) - recursion(r, phi)).max() < 1e-13
    # a 20-step evolve stack from a mixed memory, one system state per row
    mem0 = _mixed_memory(phi)
    states = np.stack([_rho(rng) for _ in range(4)])
    stack, slots = evolve(model, states, 20, mem0=mem0)
    assert slots == ("mem", "sys")
    for r0, got in zip(states, stack):
        want = tensor(mem0, r0)
        for t in range(21):
            assert np.abs(got[t] - want).max() < 1e-13
            want = recursion(want, phi)


def test_delta_geometric_decay_and_alignment():
    phi = 0.3
    model = sqrt_xor(phi)
    rng = np.random.default_rng(7)
    r = H.rand_rho(rng, 4)
    k = np.sin(2 * phi)
    prev = delta(r)
    for _ in range(50):
        nxt = apply_kraus(build_embedding(model)[1], r)
        d = delta(nxt)
        assert abs(d - k * prev) < 1e-12 * max(abs(prev), 1.0)
        # the system coherence one step ahead is locked to the current delta
        rho01 = nxt[0, 1] + nxt[2, 3]
        assert abs(rho01 - (1 + 1j * k) * prev / 2.0) < 1e-12
        r, prev = nxt, d


def test_delta_input_validation():
    with pytest.raises(ValueError):
        delta(np.eye(2))


def test_simulate_embedding_reduced_coherence_ratio():
    phi = 0.35
    model = sqrt_xor(phi)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    traj = simulate(model, rho0, steps=12)
    offs = [st.matrix[0, 1] + st.matrix[2, 3] for st in traj]
    k = np.sin(2 * phi)
    for t in range(1, 12):
        assert abs(offs[t + 1] - k * offs[t]) < 1e-13


def test_simulate_embedding_start_and_length():
    traj = simulate(repeated_xor(0.2), np.diag([0.7, 0.3]), steps=4)
    assert len(traj) == 5
    assert np.allclose(traj[0].matrix, np.kron(_mem0(), np.diag([0.7, 0.3])))
    with pytest.raises(ValueError):
        simulate(repeated_xor(0.2), np.diag([0.7, 0.3]), steps=-1)


# ---- stationary states ------------------------------------------------------

def test_one_step_stationarity_repeated():
    rng = np.random.default_rng(123)
    for phi in (0.25, np.pi / 6):
        model = repeated_xor(phi)
        for _ in range(10):
            r0 = _rho(rng)
            start = tensor(_mem0(), r0)
            one = apply_kraus(build_embedding(model)[1], start)
            two = apply_kraus(build_embedding(model)[1], one)
            assert np.abs(two - one).max() < 1e-14
            want = H.stat_double(phi, r0[0, 0].real, r0[1, 1].real)
            assert np.abs(one - want).max() < 1e-14


def test_stationary_state_closed_forms():
    rng = np.random.default_rng(5)
    r0 = _rho(rng)
    p00, p11 = r0[0, 0].real, r0[1, 1].real
    st_b = stationary_state(repeated_xor(0.4), r0)
    assert np.abs(st_b.matrix - H.stat_double(0.4, p00, p11)).max() < 1e-14
    st_c = stationary_state(sqrt_xor(0.4), r0)
    assert np.abs(st_c.matrix - H.stat_split(0.4, p00, p11)).max() < 1e-14
    # the conjugate-sign memory vector is a different state
    wrong = H.stat_split(0.4, p00, p11).conj()
    assert H.tdist(st_c.matrix, wrong) > 1e-3


def test_stationary_state_is_actually_stationary():
    rng = np.random.default_rng(6)
    for factory in (repeated_xor, sqrt_xor):
        model = factory(0.55)
        st = stationary_state(model, H.rand_rho(rng, 2))
        nxt = apply_kraus(build_embedding(model)[1], st)
        assert np.abs(nxt.matrix - st.matrix).max() < 1e-14


def test_stationary_state_sqrt_quarter_pi():
    # diagonal system inputs still have a limit at the non-contracting angle
    st = stationary_state(sqrt_xor(np.pi / 4), np.diag([0.5, 0.5]))
    nxt = apply_kraus(build_embedding(sqrt_xor(np.pi / 4))[1], st)
    assert np.abs(nxt.matrix - st.matrix).max() < 1e-14
    with pytest.raises(ValueError):
        stationary_state(sqrt_xor(np.pi / 4), np.array([[0.5, 0.4], [0.4, 0.5]]))


def test_relax_matches_closed_form_sqrt():
    phi = 0.5
    model = sqrt_xor(phi)
    r0 = np.array([[0.55, 0.2 - 0.3j], [0.2 + 0.3j, 0.45]])
    got = simulate(model, r0, 200)[-1]
    want = stationary_state(model, r0)
    assert H.tdist(got.matrix, want.matrix) < 1e-12


def test_relax_retains_coherence_at_critical_angle():
    # sin(2 phi) = 1: the decaying combination stops decaying, so the limit
    # keeps a coherence the closed form cannot describe
    model = sqrt_xor(np.pi / 4)
    r0 = np.array([[0.5, 0.4], [0.4, 0.5]])
    got = simulate(model, r0, 10)[-1]
    assert abs(delta(got.matrix)) > 0.1
    nxt = apply_kraus(build_embedding(model)[1], got)
    assert H.tdist(nxt.matrix, got.matrix) < 1e-13


def test_stationary_overlap_values():
    for phi in (0.2, 0.5, np.pi / 6):
        s2 = np.sin(2 * phi)
        assert stationary_overlap(repeated_xor(phi)) == pytest.approx(abs(s2), abs=1e-14)
        want = np.sqrt((1 + s2 ** 2) / 2.0)
        assert stationary_overlap(sqrt_xor(phi)) == pytest.approx(want, abs=1e-14)
    # the split-collision memories are never orthogonal
    phis = np.linspace(0.0, np.pi / 2, 40)
    assert min(stationary_overlap(sqrt_xor(p)) for p in phis) >= np.sqrt(0.5) - 1e-12
    with pytest.raises(ValueError):
        stationary_memory_vector(markov_xor(0.3))


# ---- sliding window engine ---------------------------------------------------
# The window engine runs custom models only; a built-in layout runs through it
# as the custom model with the same gate and schedule.

@pytest.mark.parametrize("kind,factory,gate_ms", [
    ("double", repeated_xor, H.XOR_MOL_SYS),
    ("split", sqrt_xor, H.sqrt_xor_mol_sys()),
])
def test_run_window_matches_independent_window_oracle(kind, factory, gate_ms):
    rng = np.random.default_rng(11)
    phi = 0.42
    r0 = _rho(rng)
    steps = 6
    got = simulate(custom_chain(factory(phi).collision_gate(), overlap_schedule(steps), phi=phi), r0, steps)
    want = H.window_run_oracle(H.overlap_events(steps), steps, gate_ms, phi, r0)
    for t in range(steps + 1):
        assert H.tdist(got[t].matrix, want[t]) < 1e-13


@pytest.mark.parametrize("factory", [repeated_xor, sqrt_xor])
def test_window_marginals_match_embedding_from_fresh_memory(factory):
    rng = np.random.default_rng(17)
    phi = 0.37
    model = factory(phi)
    r0 = _rho(rng)
    steps = 7
    window = simulate(custom_chain(model.collision_gate(), overlap_schedule(steps), phi=phi), r0, steps)
    xi = H.molecule_density(phi)
    emb = simulate(model, r0, steps=steps, mem0=xi)
    for t in range(steps - 1):  # the final window step lacks its second collision
        sys_emb = partial_trace(emb[t], "sys")
        assert H.tdist(window[t].matrix, sys_emb.matrix) < 1e-12


def test_run_window_markov_equals_closed_form():
    phi = 0.6
    r = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    got = simulate(custom_chain(xor_gate(), chain_schedule(5), phi=phi), r, 5)
    cur = r.copy()
    for t in range(6):
        assert H.tdist(got[t].matrix, cur) < 1e-14
        cur = markov_xor_step(cur, phi)


def test_custom_window_gate_override_consistency():
    # per-event sqrt-xor overrides reproduce the sqrt model on the same schedule
    steps = 5
    sched = overlap_schedule(steps)
    recs = [{**r, "gate": "sqrt-xor"} for r in H.schedule_records(sched)]
    phi = 0.33
    custom = custom_chain(xor_gate(), schedule_from_records(recs, horizon=steps), phi=phi)
    r0 = np.diag([0.2, 0.8]).astype(complex)
    a = simulate(custom, r0, steps)
    b = simulate(custom_chain(sqrt_xor_gate(), sched, phi=phi), r0, steps)
    for x, y in zip(a, b):
        assert H.tdist(x.matrix, y.matrix) < 1e-13


def test_custom_window_against_advanced_oracle():
    phi = 0.29
    steps = 6
    sched = advanced_overlap_schedule(steps)
    model = custom_chain(xor_gate(), sched, phi=phi)
    rng = np.random.default_rng(23)
    r0 = _rho(rng)
    got = simulate(model, r0, steps)
    want = H.window_run_oracle(H.advanced_overlap_events(steps), steps, H.XOR_MOL_SYS, phi, r0)
    for t in range(steps + 1):
        assert H.tdist(got[t].matrix, want[t]) < 1e-13


def test_run_window_errors_and_cap():
    cm = custom_chain(xor_gate(), overlap_schedule(4), phi=0.3)
    with pytest.raises(ValueError):
        simulate(cm, np.diag([1.0, 0.0]), 9)
    assert len(simulate(cm, np.diag([1.0, 0.0]), 4)) == 5
    # a schedule that holds every molecule open outgrows the window cap; the
    # model is refused when it is built, the width reported before phi
    horizon = WINDOW_QUBIT_CAP
    wide = schedule_from_records(
        [{"t": t, "mol": m} for t in range(horizon) for m in range(t + 1)], horizon=horizon)
    assert window_width(wide) > WINDOW_QUBIT_CAP
    for build in (lambda: custom_chain(xor_gate(), wide),
                  lambda: ChainModel(CUSTOM, float("nan"), gate=xor_gate(), schedule=wide)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == "schedule needs a 7-qubit window; the engine cap is 6"


def test_sliding_window_state_bookkeeping():
    sched = overlap_schedule(4)
    model = custom_chain(xor_gate(), sched, phi=0.3)
    joint, open_ids, closing = window_collide(np.diag([1.0, 0.0]).astype(complex), [], model, 0)
    # step 0 attaches molecule 1 (fresh) and molecule 0 (single event);
    # molecule 0 closes at once and leads the register, then the molecules
    # that stay open, newest first, then the system
    assert (open_ids, closing) == ([1], 1)
    assert joint.shape == (8, 8)
    # molecule 1 stays open until its second event, at step 1
    joint = trace_front(joint, 1)
    joint, open_ids, closing = window_collide(joint, open_ids, model, 1)
    assert (open_ids, closing) == ([2], 1)
    assert joint.shape == (8, 8)


_STEP_ORACLE_MODELS = {
    **{f"gap{gap}-{gate.__name__}": custom_chain(gate(), chains._double_collision_schedule(40, gap), phi=0.43)
       for gap in (1, 2, 3) for gate in (xor_gate, sqrt_xor_gate)},
    **{f"burst-{gate.__name__}": custom_chain(gate(), H.burst_schedule(40), phi=0.43)
       for gate in (xor_gate, sqrt_xor_gate)},
    # the built-in layouts as custom models
    "markov_xor": custom_chain(xor_gate(), chain_schedule(40), phi=0.31),
    "repeated_xor": custom_chain(xor_gate(), overlap_schedule(40), phi=0.31),
    "sqrt_xor": custom_chain(sqrt_xor_gate(), overlap_schedule(40), phi=0.31),
}


@pytest.mark.parametrize("name", list(_STEP_ORACLE_MODELS))
def test_run_window_bitwise_matches_step_oracle(name):
    model = _STEP_ORACLE_MODELS[name]
    r0 = _rho(np.random.default_rng(53))
    got = simulate(model, r0, 40)
    want = H.window_step_oracle(model, r0, 40)
    assert len(got) == len(want) == 41
    assert all(g.slots == ("sys",) and np.array_equal(g.matrix, w.matrix) for g, w in zip(got, want))


_REAL_DIAGONAL_CASES = {
    **{f"{layout.__name__}-{gate.__name__}": (custom_chain(gate(), layout(40), phi=0.7), None)
       for layout in (overlap_schedule, advanced_overlap_schedule, H.burst_schedule)
       for gate in (xor_gate, sqrt_xor_gate)},
    "markov_xor": (markov_xor(0.7), None),
    "repeated_xor": (repeated_xor(0.7), H.molecule_density(0.7)),
    "sqrt_xor": (sqrt_xor(0.7), H.molecule_density(0.7)),
}


@pytest.mark.parametrize("case", list(_REAL_DIAGONAL_CASES))
def test_window_marginals_have_exactly_real_diagonals(case):
    # the step product is Hermitian only to round-off; the rows after t = 0
    # carry an exact zero imaginary diagonal, and t = 0 is the input
    model, mem0 = _REAL_DIAGONAL_CASES[case]
    rng = np.random.default_rng(7)
    r0 = np.stack([_rho(rng), _rho(rng)])
    assert np.diagonal(r0, axis1=-2, axis2=-1).imag.any()
    stack, _ = evolve(model, r0, 40, mem0)
    start = r0 if mem0 is None else np.stack([tensor(mem0, r) for r in r0])
    assert _bitwise_equal(stack[:, 0], start)
    diag = np.diagonal(stack[:, 1:], axis1=-2, axis2=-1)
    assert not np.signbit(diag.imag).any() and not diag.imag.any()


def _random_sys_mol_gate(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return UnitaryGate(q, ("sys", "mol"), label="random")


_COMPILE_GATES = {"xor": xor_gate(), "sqrt-xor": sqrt_xor_gate(), "random": _random_sys_mol_gate(5)}


def _mixed_gap2_schedule(horizon):
    # every third event overridden, alternately by xor and sqrt-xor, so the
    # model's own gate and both named gates meet in one step
    recs = H.schedule_records(chains._double_collision_schedule(horizon, 2))
    for i, rec in enumerate(recs[::3]):
        rec["gate"] = ("xor", "sqrt-xor")[i % 2]
    return schedule_from_records(recs, horizon=horizon)


_COMPILE_LAYOUTS = {
    **{f"gap{gap}": lambda h, gap=gap: chains._double_collision_schedule(h, gap) for gap in (1, 2, 3)},
    "burst": H.burst_schedule,
    "mixed": _mixed_gap2_schedule,
}


def _oracle_step(joint, open_ids, model, t):
    """The per-gate oracle's step, its register reordered to the engine's:
    the molecules closing at step t first, in ascending id."""
    want, ids = H.window_collide_oracle(joint, open_ids, model, t)
    return H.closing_first(want, ids, H.scan_closing(model.schedule, t))


def _engine_steps(model, start):
    """(joint, open_ids) before each step of the engine's own run of start."""
    schedule = model.schedule
    joint, open_ids = start, []
    for t in range(schedule.horizon):
        yield t, joint, open_ids
        joint, open_ids, closing = window_collide(joint, open_ids, model, t)
        joint = trace_front(joint, closing)


@pytest.mark.parametrize("phi", [0.43, 0.0, -0.0])
@pytest.mark.parametrize("gate", list(_COMPILE_GATES))
@pytest.mark.parametrize("layout", list(_COMPILE_LAYOUTS))
def test_compiled_step_matches_per_gate_sandwich(layout, gate, phi):
    # one state and the four probes as a stack, every step from the engine's
    # own joint state, against attach-then-sandwich one collision at a time
    model = custom_chain(_COMPILE_GATES[gate], _COMPILE_LAYOUTS[layout](18), phi=phi)
    for start in (_rho(np.random.default_rng(29)), np.stack(tomography_probes(2))):
        for t, joint, open_ids in _engine_steps(model, start):
            got, ids, closing = window_collide(joint, open_ids, model, t)
            want, want_ids = _oracle_step(joint, open_ids, model, t)
            assert (ids, closing) == (want_ids, len(H.scan_closing(model.schedule, t)))
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_step_cache_tells_signed_zeros_and_gate_instances_apart():
    # -0.0 and 0.0 compare equal but prepare differently signed zeros; run
    # one after the other, each step reads its own
    r0 = _rho(np.random.default_rng(31))
    shape = (0, ((-1, 0),), (0,))  # one fresh molecule, its collision and its readout
    isometries = []
    for phi in (0.0, -0.0):
        model = custom_chain(xor_gate(), chain_schedule(2), phi=phi)
        v, vh = chains._step_isometry(model, shape)
        assert _bitwise_equal(window_collide(r0, [], model, 0)[0], v @ r0 @ vh)
        isometries.append(v)
    v_pos, v_neg = isometries
    assert not np.signbit(v_pos.real).any() and np.signbit(v_neg.real).any()
    # two gates with the same roles, run one after the other on one shape
    a, b = _random_sys_mol_gate(7), _random_sys_mol_gate(8)
    for g in (a, b):
        model = custom_chain(g, chains._double_collision_schedule(12, 2), phi=0.43)
        for t, joint, open_ids in _engine_steps(model, r0):
            got, _, _ = window_collide(joint, open_ids, model, t)
            want, _ = _oracle_step(joint, open_ids, model, t)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    v_a, v_b = (chains._step_isometry(custom_chain(g, chain_schedule(2), phi=0.43), shape)[0] for g in (a, b))
    assert not np.allclose(v_a, v_b)


@pytest.mark.parametrize("gap", [1, 2, 3])
def test_each_step_shape_compiles_once(gap, monkeypatch):
    # a gap-k layout has k start-up shapes, one steady shape and k closing
    # shapes, whatever the horizon: one run each, so one compile each
    compiled, compile_step = [], chains._step_isometry

    def spy(model, shape):
        compiled.append(shape)
        return compile_step(model, shape)

    monkeypatch.setattr(chains, "_step_isometry", spy)
    model = custom_chain(sqrt_xor_gate(), chains._double_collision_schedule(300, gap), phi=0.37)
    evolve(model, _rho(np.random.default_rng(37)), 300)
    assert len(compiled) == len(set(compiled)) == 2 * gap + 1
    for horizon in range(1, 301):
        compiled.clear()
        system_maps(custom_chain(xor_gate(), chains._double_collision_schedule(horizon, gap), phi=0.37), horizon)
        assert len(compiled) == len(set(compiled)) <= 2 * gap + 1


# ---- run table ------------------------------------------------------------------
# A custom model's steps are read from its schedule's run table; the per-step
# bookkeeping the window engine once did is the oracle.

def _idle_schedule(horizon):
    # molecule k collides at steps 4k and 4k + 2: step 4k + 1 holds it open
    # without an event, and step 4k + 3 holds no molecule
    return schedule_from_records([{"t": t, "mol": t // 4} for t in range(horizon) if t % 4 in (0, 2)],
                                 horizon=horizon)


_RUN_LAYOUTS = {**_COMPILE_LAYOUTS, "1d": single_molecule_schedule, "idle": _idle_schedule}


def _check_runs_against_step_oracle(sched):
    runs = sched.runs()
    # the runs tile the steps in order, and neighbours differ in shape
    assert [start for _, start, _ in runs] == np.cumsum([0] + [count for *_, count in runs[:-1]]).tolist()
    assert min(count for *_, count in runs) > 0 and sum(count for *_, count in runs) == sched.horizon
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    open_ids = []
    for t, shape in enumerate(shape for shape, _, count in runs for _ in range(count)):
        want, want_ids = H.step_shape_oracle(sched, open_ids, t)
        assert shape == want == sched.step_shape(t)
        open_ids = sched.open_after(t, open_ids)
        assert open_ids == want_ids
    assert sched.runs() is runs
    return runs


@pytest.mark.parametrize("layout", list(_RUN_LAYOUTS))
def test_run_table_expands_to_the_step_oracle(layout):
    # a burst layout lists its first events at horizon 3
    for horizon in (*range(3 if layout == "burst" else 1, 14), 300):
        runs = _check_runs_against_step_oracle(_RUN_LAYOUTS[layout](horizon))
        if layout.startswith("gap") and horizon == 300:
            # k start-up runs, one steady run and k closing runs
            assert len(runs) == 2 * int(layout[3:]) + 1


def test_run_table_of_random_schedules_expands_to_the_step_oracle():
    rng = np.random.default_rng(13)
    for _ in range(300):
        horizon = int(rng.integers(1, 12))
        pairs = {(int(rng.integers(0, 9)), int(rng.integers(0, horizon)))
                 for _ in range(int(rng.integers(1, 25)))}
        events = [(t, m) for m, t in pairs]
        rng.shuffle(events)
        codes = rng.integers(0, len(GATE_NAMES), len(events))
        _check_runs_against_step_oracle(CollisionSchedule(*zip(*events), horizon, codes))


def test_run_table_scan_does_not_grow_with_the_horizon():
    # idle stretches are one run each, however long
    sched = schedule_from_records([{"t": 0, "mol": 0}, {"t": 10**12, "mol": 0}])
    assert sched.runs() == (((0, ((-1, 0),), ()), 0, 1), ((1, (), ()), 1, 10**12 - 1),
                            ((1, ((0, 0),), (0,)), 10**12, 1))
    assert sched.step_shape(5 * 10**11) == (1, (), ())
    for step in (-1, 10**12 + 1):
        with pytest.raises(ValueError, match="outside horizon"):
            sched.step_shape(step)


def test_census_and_schedule_printer_build_no_run_table(monkeypatch, capsys):
    # the table is built when a window step first needs it; the census, the
    # schedule printer and a built-in nm_report never do
    from nmchain import cli
    from nmchain.measures import nm_report

    def refuse(self):
        raise AssertionError("a run table was built")

    monkeypatch.setattr(CollisionSchedule, "runs", refuse)
    assert cli.main(["schedule", "--figure", "1b", "--horizon", "800"]) == 0
    assert "satellite_count = 1" in capsys.readouterr().err
    sched = overlap_schedule(800)
    assert (satellite_count(sched), window_width(sched)) == (1, 3)
    for factory in (markov_xor, repeated_xor, sqrt_xor):
        nm_report(factory(0.3), np.diag([0.6, 0.4]))
    assert sched._runs is None


@pytest.mark.parametrize("layout", ["gap1", "gap2", "gap3", "burst", "idle"])
def test_evolve_cut_inside_a_run_is_the_head_of_the_whole_run(layout):
    # steps = k cuts a run, and a run's register buffer, anywhere: the rows
    # are the first k + 1 of the whole run, bit for bit, for one state and
    # for the probe stack
    for horizon, cuts in ((40, range(41)), (300, (1, 2, 3, 4, 5, 17, 150, 296, 297, 298, 299))):
        model = custom_chain(sqrt_xor_gate(), _RUN_LAYOUTS[layout](horizon), phi=0.43)
        for start in (_rho(np.random.default_rng(59)), chains._PROBES):
            whole = evolve(model, start, horizon)[0]
            for k in cuts:
                head = evolve(model, start, k)[0]
                assert np.array_equal(head.view(np.int64), whole[..., :k + 1, :, :].view(np.int64))


# ---- accumulated system maps ---------------------------------------------------

def test_system_maps_probes_are_a_read_only_constant():
    # built once at import, bit for bit the probes map_from_probes reads
    assert _bitwise_equal(chains._PROBES, np.stack(tomography_probes(2)))
    with pytest.raises(ValueError, match="read-only"):
        chains._PROBES[0, 0, 0] = 7


def test_system_maps_markov_closed_form():
    phi = 0.3
    maps = system_maps(markov_xor(phi), 5)
    k = np.sin(2 * phi)
    for t, m in enumerate(maps, start=1):
        assert np.abs(m - np.diag([1.0, k ** t, k ** t, 1.0])).max() < 1e-13


@pytest.mark.parametrize("kind,factory", [("double", repeated_xor), ("split", sqrt_xor)])
def test_system_maps_match_probe_oracle(kind, factory):
    phi = 0.41
    mem = _mem0()
    maps = system_maps(factory(phi), 4)
    for t, m in enumerate(maps, start=1):
        want = H.sys_map_oracle(phi, kind, mem, t)
        assert np.abs(m - want).max() < 1e-12


def test_system_maps_first_step_damping_factors():
    phi = 0.36
    s2, c2 = np.sin(2 * phi), np.cos(2 * phi)
    xi = H.molecule_density(phi)
    cases = [
        (sqrt_xor(phi), None, (s2 - 1j) / 2.0),
        (sqrt_xor(phi), xi, s2 - 1j * c2 ** 2 / 2.0),
        (repeated_xor(phi), xi, s2 ** 2),
        (repeated_xor(phi), None, 0.0),
    ]
    for model, mem, want in cases:
        m1 = system_maps(model, 1, mem0=mem)[0]
        assert abs(m1[1, 1] - want) < 1e-13
        assert abs(m1[2, 2] - np.conj(want)) < 1e-13


def test_system_maps_split_decay_ratio():
    phi = 0.47
    maps = system_maps(sqrt_xor(phi), 5, mem0=H.molecule_density(phi))
    for prev, cur in zip(maps, maps[1:]):
        ratio = cur[2, 2] / prev[2, 2]
        assert abs(ratio - np.sin(2 * phi)) < 1e-12


def test_system_maps_custom_matches_builtin_on_same_schedule():
    phi = 0.3
    t_max = 3
    custom = custom_chain(xor_gate(), overlap_schedule(t_max + 1), phi=phi)
    got = system_maps(custom, t_max)
    oracle_events = H.overlap_events(t_max + 1)
    for t, m in enumerate(got, start=1):
        def evolve(r, t=t):
            return H.window_run_oracle(oracle_events, t_max + 1, H.XOR_MOL_SYS, phi, r)[t]
        # probe via matrix units; the oracle runner is linear in its input
        s = np.zeros((4, 4), complex)
        for j in range(2):
            for i in range(2):
                e = np.zeros((2, 2), complex)
                e[i, j] = 1.0
                s[:, j * 2 + i] = evolve(e).reshape(-1, order="F")
        assert np.abs(m - s).max() < 1e-12
    with pytest.raises(ValueError):
        system_maps(custom, 9)
    with pytest.raises(ValueError):
        system_maps(markov_xor(0.3), 0)


def test_system_maps_runs_each_probe_once(monkeypatch):
    """A custom model runs its four probes as one stack through one window pass."""
    calls = []
    real = chains._evolve_run

    def spy(joint, run, rows):
        start, count = run[-2:]
        calls.extend((np.shape(joint)[0], t) for t in range(start, start + count))
        return real(joint, run, rows)

    monkeypatch.setattr(chains, "_evolve_run", spy)
    custom = custom_chain(xor_gate(), advanced_overlap_schedule(8), phi=0.3)
    for t_max in (3, 8):
        calls.clear()
        assert len(system_maps(custom, t_max)) == t_max
        assert calls == [(4, t) for t in range(t_max)]


@pytest.mark.parametrize("factory", [markov_xor, repeated_xor, sqrt_xor])
def test_system_maps_rebuild_every_map_in_one_call(monkeypatch, factory):
    shapes = []
    real = chains.map_from_probes

    def spy(outputs, dim):
        shapes.append(np.shape(outputs))
        return real(outputs, dim)

    monkeypatch.setattr(chains, "map_from_probes", spy)
    got = system_maps(factory(0.3), 7)
    assert shapes == [(4, 7, 2, 2)]
    assert got.shape == (7, 4, 4) and got.dtype == complex


@pytest.mark.parametrize("name,factory", [("_evolve_run", sqrt_xor), ("_evolve_run", repeated_xor),
                                          ("markov_xor_step", markov_xor)],
                         ids=["collide-sqrt_xor", "collide-repeated_xor", "markov_xor_step-markov_xor"])
def test_builtin_system_maps_step_the_probes_as_one_stack(monkeypatch, name, factory):
    # a built-in model makes no per-step call: one powers call fills every
    # step of the whole probe stack, and a two-collision model reads its
    # step instrument once for it
    powers = "_markov_powers" if factory is markov_xor else "_step_powers"
    per_step, shapes, instruments = [], [], []
    real_step, real_powers, real_instrument = getattr(chains, name), getattr(chains, powers), chains.step_instrument

    def step_spy(*args):
        per_step.append(1)
        return real_step(*args)

    def powers_spy(*args):
        shapes.append(np.shape(args[0]))
        return real_powers(*args)

    def instrument_spy(model):
        instruments.append(model.kind)
        return real_instrument(model)

    monkeypatch.setattr(chains, name, step_spy)
    monkeypatch.setattr(chains, powers, powers_spy)
    monkeypatch.setattr(chains, "step_instrument", instrument_spy)
    assert len(system_maps(factory(0.3), 5)) == 5
    assert per_step == []
    assert shapes == [(4, 2, 2) if factory is markov_xor else (4, 4, 4)]
    assert instruments == ([] if factory is markov_xor else [factory(0.3).kind])


@pytest.mark.parametrize("gap", (1, 2, 3))
@pytest.mark.parametrize("gate", (xor_gate, sqrt_xor_gate))
def test_stacked_system_maps_equal_per_probe_runs(gap, gate):
    t_max = 12
    custom = custom_chain(gate(), chains._double_collision_schedule(t_max, gap), phi=0.43)
    runs = [simulate(custom, p, t_max) for p in tomography_probes(2)]
    want = [map_from_probes([run[t].matrix for run in runs], 2) for t in range(1, t_max + 1)]
    got = system_maps(custom, t_max)
    assert len(got) == t_max
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


# ---- one evolution per model ------------------------------------------------

def test_simulate_picks_the_model_register():
    phi = 0.37
    rng = np.random.default_rng(41)
    r0 = _rho(rng)
    steps = 4
    got = simulate(markov_xor(phi), r0, steps)
    want = [r0]
    for _ in range(steps):
        want.append(markov_xor_step(want[-1], phi))
    assert [s.slots for s in got] == [("sys",)] * (steps + 1)
    assert all(_bitwise_equal(g.matrix, w) for g, w in zip(got, _exact_real_diagonals(want)))
    for factory in (repeated_xor, sqrt_xor):
        got = simulate(factory(phi), r0, steps, mem0=H.molecule_density(phi))
        want = [tensor(H.molecule_density(phi), r0)]
        for _ in range(steps):
            want.append(apply_kraus(build_embedding(factory(phi))[1], want[-1]))
        assert [s.slots for s in got] == [("mem", "sys")] * (steps + 1)
        assert _same_run(factory(phi), [g.matrix for g in got], _exact_real_diagonals(want))
    custom = custom_chain(sqrt_xor_gate(), advanced_overlap_schedule(6), phi=phi)
    got = simulate(custom, r0, steps)
    want = H.window_step_oracle(custom, r0, steps)
    assert [s.slots for s in got] == [("sys",)] * (steps + 1)
    assert all(np.array_equal(g.matrix, w.matrix) for g, w in zip(got, want))
    with pytest.raises(ValueError):
        simulate(markov_xor(phi), r0, -1)


_PHIS = (0.1, 0.3, 0.7, 1.2, 0.0, -0.0, -0.4)


def _mixed_memory(phi):
    return 0.8 * H.molecule_density(phi) + 0.2 * np.eye(2) / 2


def _per_step_run(model, r0, steps, mem0=None):
    """States [t=0 .. steps] of one state, one step at a time: the scalar
    markov-xor step, the compound Kraus pair from tensor(mem0, r0), or the window
    engine's per-step DensityMatrix loop; every state after t = 0 with an
    exactly real diagonal."""
    if model.kind == CUSTOM:
        return [s.matrix for s in H.window_step_oracle(model, r0, steps)]
    if model.kind == MARKOV_XOR:
        out = [np.asarray(r0, dtype=complex)]
        for _ in range(steps):
            out.append(_markov_scalar_step(out[-1], model.phi))
        return _exact_real_diagonals(out)
    out = [tensor(_mem0() if mem0 is None else mem0, r0)]
    for _ in range(steps):
        out.append(apply_kraus(build_embedding(model)[1], out[-1]))
    return _exact_real_diagonals(out)


# evolve steps the two-collision models by powers of one transfer matrix
# (chains._step_powers). Its products sum each entry in another order than
# the per-step K rho K^dagger, so those rows agree with the per-step run to
# round-off only: at most 6 eps over the 9 steps of these tests, a few eps per
# product. markov-xor and custom models step as the oracle does, bit for bit.
_POWERS_TOL = 1e-14


def _same_run(model, got, want):
    if len(got) != len(want):
        return False
    if model.kind in (REPEATED_XOR, SQRT_XOR):
        return all(g.shape == w.shape and np.abs(g - w).max() <= _POWERS_TOL for g, w in zip(got, want))
    return all(_bitwise_equal(g, w) for g, w in zip(got, want))


def _oracle_cases():
    for phi in _PHIS:
        yield markov_xor(phi), None
        for factory in (repeated_xor, sqrt_xor):
            yield factory(phi), None
            yield factory(phi), _mixed_memory(phi)
        for gate in (xor_gate, sqrt_xor_gate):
            yield custom_chain(gate(), advanced_overlap_schedule(9), phi=phi), None


def test_evolve_stacks_equal_per_step_runs():
    rng = np.random.default_rng(61)
    steps = 9
    for model, mem0 in _oracle_cases():
        states = np.stack([_rho(rng) for _ in range(6)])
        states[0] = np.diag([1.0, 0.0])
        stack, slots = evolve(model, states.reshape(2, 3, 2, 2), steps, mem0)
        dim = 4 if model.kind in (REPEATED_XOR, SQRT_XOR) else 2
        assert stack.shape == (2, 3, steps + 1, dim, dim)
        assert slots == (("mem", "sys") if dim == 4 else ("sys",))
        for got, r0 in zip(stack.reshape(6, steps + 1, dim, dim), states):
            assert _same_run(model, got, _per_step_run(model, r0, steps, mem0))
        one, _ = evolve(model, states[1], steps, mem0)
        assert _bitwise_equal(one, stack[0, 1])


def test_system_maps_equal_per_probe_runs():
    t_max = 9
    for model, mem0 in _oracle_cases():
        runs = [_per_step_run(model, p, t_max, mem0) for p in tomography_probes(2)]
        outs = [[trace_front(run[t], 1) if run[t].shape == (4, 4) else run[t] for run in runs]
                for t in range(1, t_max + 1)]
        want = [map_from_probes(out, 2) for out in outs]
        got = system_maps(model, t_max, mem0)
        assert len(got) == t_max
        assert _same_run(model, got, want)


def test_evolve_rows_depend_on_neither_steps_nor_the_stack():
    # row t of a built-in run always comes out of the same products: every
    # prefix of a long run, and every state of a stack run alone, gives the
    # same rows bit for bit
    rng = np.random.default_rng(63)
    for model, mem0 in ((repeated_xor(0.83), _mixed_memory(0.83)), (sqrt_xor(0.83), _mixed_memory(0.83)),
                        (markov_xor(0.83), None)):
        states = np.stack([_rho(rng) for _ in range(5)])
        full, _ = evolve(model, states, 70, mem0)
        for steps in range(71):
            assert _bitwise_equal(evolve(model, states[2], steps, mem0)[0], full[2, :steps + 1])
        for r0, rows in zip(states, full):
            assert _bitwise_equal(evolve(model, r0, 70, mem0)[0], rows)


@pytest.mark.parametrize("steps", [10_000, 100_000])
@pytest.mark.parametrize("factory", [repeated_xor, sqrt_xor])
def test_long_evolve_keeps_unit_trace(factory, steps):
    # every power of the transfer matrix gets its trace column re-set; plain
    # repeated squaring doubles P's ~1 ulp trace bias with every squaring, a
    # deviation that grows linearly in t: up to 1.4e-12 at 10,000 steps, past
    # check_states' TRACE_TOL (1e-12)
    rng = np.random.default_rng(64)
    for phi in (0.37, -1.21, 2.6):
        stack, _ = evolve(factory(phi), _rho(rng), steps)  # check_states passed on every row
        assert np.abs(stack.trace(axis1=-2, axis2=-1) - 1.0).max() < 1e-14


def test_evolve_errors_keep_their_messages():
    r0 = np.diag([0.4, 0.6])
    custom = custom_chain(xor_gate(), overlap_schedule(4), phi=0.3)
    cases = [
        ((markov_xor(0.3), r0, 2, _mem0()), "markov-xor has no memory slot; mem0 does not apply"),
        ((custom, r0, 2, _mem0()), "custom has no memory slot; mem0 does not apply"),
        ((custom, r0, 5, None), "steps 5 exceed the schedule horizon 4"),
        ((sqrt_xor(0.3), r0, -1, None), "steps must be non-negative"),
        ((sqrt_xor(0.3), np.eye(4) / 4, 2, None), "matrix shape (4, 4) does not fit 1 qubit slots"),
        ((markov_xor(0.3), np.diag([0.7, 0.7]), 2, None), "density matrix trace (1.4+0j) differs from 1"),
    ]
    for args, message in cases:
        for run in (evolve, simulate):
            with pytest.raises(ValueError) as err:
                run(*args)
            assert str(err.value) == message


def test_evolve_checks_a_given_mem0_before_attaching_it(monkeypatch):
    # a bad memory start raises its own message before any product runs, so
    # under warnings-as-errors no RuntimeWarning from the attach takes the
    # place of the ValueError
    r0 = np.diag([0.4, 0.6])
    cases = [
        ([[np.inf, 0], [0, 0]], "density matrix has non-finite entries"),
        ([[np.nan, 0], [0, 1]], "density matrix has non-finite entries"),
        ([[0.5, 0.1], [0.3, 0.5]], "density matrix not Hermitian (residual 2.000e-01)"),
        (np.eye(2), "density matrix trace (2+0j) differs from 1"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mem0, message in cases:
            for model in (sqrt_xor(0.37), repeated_xor(0.37)):
                for run in (lambda: evolve(model, r0, 5, mem0), lambda: evolve(model, r0, 0, mem0),
                            lambda: simulate(model, r0, 5, mem0), lambda: system_maps(model, 3, mem0)):
                    with pytest.raises(ValueError) as err:
                        run()
                    assert str(err.value) == message
    # the default start is not checked, and the attached compound is checked
    # once, as row 0 of the result: the system states and the result stack
    calls = []
    real_check = chains.check_states

    def spy(m):
        calls.append(m.shape)
        real_check(m)

    monkeypatch.setattr(chains, "check_states", spy)
    evolve(sqrt_xor(0.37), r0, 0)
    assert calls == [(2, 2), (1, 4, 4)]


def test_evolve_checks_every_evolved_state(monkeypatch):
    r0 = np.diag([0.4, 0.6])
    custom = custom_chain(sqrt_xor_gate(), overlap_schedule(6), phi=0.3)
    # the two-collision rows lose trace at t = 3
    real_powers = chains._step_powers

    def leaky_powers(first, model, steps):
        stack = real_powers(first, model, steps)
        stack[..., 3, :, :] *= 0.5
        return stack

    # and so do the custom rows, written by the window run that holds t = 3
    real_run = chains._evolve_run

    def leaky_run(joint, run, rows):
        joint = real_run(joint, run, rows)
        start, count = run[-2:]
        if start < 3 <= start + count:
            rows[3] *= 0.5
        return joint

    monkeypatch.setattr(chains, "_step_powers", leaky_powers)
    monkeypatch.setattr(chains, "_evolve_run", leaky_run)
    for model in (sqrt_xor(0.3), custom):
        for run, args in ((evolve, (r0, 4)), (simulate, (r0, 4)), (system_maps, (4,))):
            with pytest.raises(ValueError, match="trace"):
                run(model, *args)


def test_front_trace_matches_partial_trace_bit_for_bit():
    # partial_trace of a leading run of slots is trace_front of the same
    # matrix, bit for bit. np.trace adds each diagonal block after the first
    # to 0.0 before the sum, so -0.0 + -0.0 traces to +0.0; the two-slice sum
    # a[..., :h, :h] + a[..., h:, h:] keeps -0.0, which is why it is not used
    rng = np.random.default_rng(66)
    for n in range(1, 5):
        slots = tuple(f"q{k}" for k in range(n))
        for a in H.signed_zero_states(rng, n, 5):
            for q in range(n):
                want = partial_trace(DensityMatrix(a, slots), slots[q:]).matrix
                assert _bitwise_equal(trace_front(a, q), want)


def test_system_marginals_trace_out_the_memory():
    rng = np.random.default_rng(62)
    r0 = _rho(rng)
    stack, slots = evolve(sqrt_xor(0.4), r0, 5, H.molecule_density(0.4))
    got = system_marginals(stack, slots)
    assert np.array_equal(got, trace_front(stack, 1))
    single, slots = evolve(markov_xor(0.4), r0, 5)
    assert system_marginals(single, slots) is single
    with pytest.raises(ValueError, match="trace"):
        system_marginals(stack * 2, ("mem", "sys"))


def test_mem0_rejected_without_memory_slot():
    mem = _mem0()
    r0 = np.diag([1.0, 0.0])
    custom = custom_chain(xor_gate(), overlap_schedule(4), phi=0.3)
    for model in (markov_xor(0.3), custom):
        with pytest.raises(ValueError, match="memory"):
            simulate(model, r0, 2, mem0=mem)
        with pytest.raises(ValueError, match="memory"):
            system_maps(model, 2, mem0=mem)
