"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
then asserts, so the suite is green exactly when every criterion holds.

Criterion 10b is expected to fail: a CP-divisibility witness for the
split-collision reduced dynamics does not exist. The xor and its square root
both take the system as control, so every reduced map of such a collision is
a dephasing channel (populations fixed, the coherence scaled by a factor
whose modulus never grows here), and so is every intermediate map: each is
CP to round-off. The scan itself can answer "not CP": on a well-conditioned
collision that is not system-controlled, a partial swap, it finds a minimum
intermediate Choi eigenvalue of -7.18e-3 at smallest singular value 0.191
(test_channels.py::test_divisibility_scan_says_false_on_a_partial_swap).
The test states the required witness faithfully and stays red rather than
weakening the threshold.
"""
import time

import numpy as np
import pytest

import helpers as H
from nmchain.chains import (
    advanced_overlap_schedule,
    build_embedding,
    custom_chain,
    markov_xor,
    markov_xor_kraus,
    markov_xor_step,
    overlap_schedule,
    repeated_xor,
    satellite_count,
    simulate,
    sqrt_xor,
    stationary_state,
    system_maps,
    window_width,
)
from nmchain.channels import apply_kraus, divisibility_scan
from nmchain.gates import molecule_state, xor_gate
from nmchain.linalg import DensityMatrix, partial_trace, partial_transpose, tensor
from nmchain.measures import classical_correlation, discord, mutual_information, nm_report
from nmchain.trajectories import branch_average, enumerate_branches, sample_ensemble


def _line(num: str, label: str, ok: bool, detail: str):
    print(f"criterion {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _rand_qubit(rng):
    return H.rand_rho(rng, 2)


def _molecule_density(phi):
    v = molecule_state(phi)
    return np.outer(v, v.conj())


# -- 1: single-collision coherence decay ------------------------------------

def test_criterion_01_single_collision_decay():
    worst_off, worst_diag = 0.0, 0.0
    for phi in (0.1, np.pi / 8, np.pi / 6, 0.7):
        k = np.sin(2 * phi)
        r0 = np.array([[0.62, 0.2 - 0.15j], [0.2 + 0.15j, 0.38]])
        kraus = markov_xor_kraus(phi)
        closed, channel = r0.copy(), r0.copy()
        for t in range(1, 21):
            closed = markov_xor_step(closed, phi)
            channel = apply_kraus(kraus, channel)
            want01 = (k ** t) * r0[0, 1]
            worst_off = max(worst_off,
                            abs(closed[0, 1] - want01), abs(channel[0, 1] - want01))
            worst_diag = max(worst_diag,
                             abs(closed[0, 0] - r0[0, 0]), abs(closed[1, 1] - r0[1, 1]),
                             abs(channel[0, 0] - r0[0, 0]), abs(channel[1, 1] - r0[1, 1]))
    ok = worst_off <= 1e-12 and worst_diag <= 1e-14
    _line("01", "single-collision coherence decay",
          ok, f"off-diag dev {worst_off:.2e} <= 1e-12, diag dev {worst_diag:.2e} <= 1e-14")
    assert ok


# -- 2: constructed operators against frozen literals -------------------------

def _golden_markov(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([
        [c, 0, -s, 0],
        [0, s, 0, c],
        [s, 0, c, 0],
        [0, c, 0, -s],
    ], dtype=complex)


def _golden_step_double(phi):
    c, s = np.cos(phi), np.sin(phi)
    w = np.zeros((8, 8), dtype=complex)
    for r, entries in enumerate([
        {0: c, 4: -s}, {3: s, 7: c}, {0: s, 4: c}, {3: c, 7: -s},
        {2: c, 6: -s}, {1: s, 5: c}, {2: s, 6: c}, {1: c, 5: -s},
    ]):
        for col, val in entries.items():
            w[r, col] = val
    return w


def _golden_kraus_double(phi):
    c, s = np.cos(phi), np.sin(phi)
    m0 = np.array([[c, 0, 0, 0], [0, 0, 0, s], [s, 0, 0, 0], [0, 0, 0, c]], dtype=complex)
    m1 = np.array([[0, 0, c, 0], [0, s, 0, 0], [0, 0, s, 0], [0, c, 0, 0]], dtype=complex)
    return m0, m1


def _golden_kraus_split(phi):
    c, s = np.cos(phi), np.sin(phi)
    b = np.exp(1j * phi) / 2.0
    bb = np.conj(b)
    m0 = np.array([
        [c, 0, 0, 0],
        [0, 1j * bb, 0, bb],
        [s, 0, 0, 0],
        [0, b, 0, -1j * b],
    ], dtype=complex)
    m1 = np.array([
        [0, 0, c, 0],
        [0, bb, 0, 1j * bb],
        [0, 0, s, 0],
        [0, -1j * b, 0, b],
    ], dtype=complex)
    return m0, m1


def test_criterion_02_operator_literals():
    worst = 0.0
    for phi in (np.pi / 6, 0.4):
        prep4 = tensor(H.prep(phi), np.eye(2))
        got4 = xor_gate().matrix @ prep4
        worst = max(worst, np.abs(got4 - _golden_markov(phi)).max())

        prep8 = tensor(H.prep(phi), np.eye(4))
        step_b, kraus_b = build_embedding(repeated_xor(phi))
        worst = max(worst, np.abs(step_b.matrix @ prep8 - _golden_step_double(phi)).max())
        for got, want in zip(kraus_b, _golden_kraus_double(phi)):
            worst = max(worst, np.abs(got - want).max())

        _, kraus_c = build_embedding(sqrt_xor(phi))
        for got, want in zip(kraus_c, _golden_kraus_split(phi)):
            worst = max(worst, np.abs(got - want).max())
    ok = worst <= 1e-14
    _line("02", "operator matrices match frozen literals", ok, f"max entry dev {worst:.2e} <= 1e-14")
    assert ok


# -- 3: one-step stationarity of the double-collision compound ----------------

def test_criterion_03_one_step_stationarity():
    rng = np.random.default_rng(303)
    worst_fix, worst_closed = 0.0, 0.0
    mem0 = np.diag([1.0, 0.0]).astype(complex)
    for phi in (0.3, np.pi / 6):
        model = repeated_xor(phi)
        for _ in range(10):
            r0 = _rand_qubit(rng)
            one = simulate(model, r0, steps=2, mem0=mem0)
            worst_fix = max(worst_fix, np.abs(one[2].matrix - one[1].matrix).max())
            want = H.stat_double(phi, r0[0, 0].real, r0[1, 1].real)
            worst_closed = max(worst_closed, np.abs(one[1].matrix - want).max())
    ok = worst_fix <= 1e-12 and worst_closed <= 1e-12
    _line("03", "double-collision chain is stationary after one step",
          ok, f"fixed-point dev {worst_fix:.2e}, closed-form dev {worst_closed:.2e} <= 1e-12")
    assert ok


# -- 4: geometric decay of the split-collision coherence ----------------------

def test_criterion_04_delta_ratio():
    from nmchain.chains import delta
    phi = 0.3
    k = np.sin(2 * phi)
    model = sqrt_xor(phi)
    rng = np.random.default_rng(404)
    r = H.rand_rho(rng, 4)
    worst_ratio, worst_align = 0.0, 0.0
    prev = delta(r)
    for _ in range(50):
        out = apply_kraus(build_embedding(model)[1], r)
        d = delta(out)
        worst_ratio = max(worst_ratio, abs(d - k * prev))
        rho01 = out[0, 1] + out[2, 3]
        worst_align = max(worst_align, abs(rho01 - (1 + 1j * k) * prev / 2.0))
        r, prev = out, d
    ok = worst_ratio <= 1e-12 and worst_align <= 1e-12
    _line("04", "split-collision delta shrinks by sin(2 phi) each step",
          ok, f"ratio dev {worst_ratio:.2e}, alignment dev {worst_align:.2e} <= 1e-12")
    assert ok


# -- 5: window marginals equal the satellite embedding ------------------------

def test_criterion_05_window_vs_embedding():
    rng = np.random.default_rng(505)
    worst = 0.0
    for factory in (repeated_xor, sqrt_xor):
        for _ in range(10):
            phi = rng.uniform(0.05, 1.5)
            r0 = _rand_qubit(rng)
            model = factory(phi)
            steps = 12
            window = simulate(custom_chain(model.collision_gate(), overlap_schedule(steps), phi=phi), r0, steps)
            emb = simulate(model, r0, steps=steps, mem0=_molecule_density(phi))
            for t in range(11):
                sys_emb = partial_trace(emb[t], "sys")
                worst = max(worst, H.tdist(window[t].matrix, sys_emb.matrix))
    ok = worst <= 1e-10
    _line("05", "sliding window equals two-qubit embedding (20 random runs, t <= 10)",
          ok, f"max trace distance {worst:.2e} <= 1e-10")
    assert ok


# -- 6: brute-force register cross-check ---------------------------------------

def test_criterion_06_brute_force_window():
    t0 = time.time()
    rng = np.random.default_rng(606)
    r0 = _rand_qubit(rng)
    horizon = 6
    worst = 0.0
    for factory, gate_ms in ((repeated_xor, H.XOR_MOL_SYS), (sqrt_xor, H.sqrt_xor_mol_sys())):
        phi = 0.37
        model = custom_chain(factory(phi).collision_gate(), overlap_schedule(horizon), phi=phi)
        window = simulate(model, r0, horizon)[-1].matrix
        brute = H.brute_force_final(H.overlap_events(horizon), horizon, gate_ms, phi, r0,
                                    n_mol=horizon)
        worst = max(worst, H.tdist(window, brute))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _line("06", "window agrees with the full 2^7 register",
          ok, f"max trace distance {worst:.2e} <= 1e-10 in {elapsed:.1f}s < 60s")
    assert ok


# -- 7: selective readout is consistent with the average dynamics --------------

def test_criterion_07_selective_readout():
    r0 = np.array([[0.62, 0.2 - 0.15j], [0.2 + 0.15j, 0.38]])
    worst_avg = 0.0
    for factory in (markov_xor, repeated_xor, sqrt_xor):
        model = factory(0.36)
        recs = enumerate_branches(model, r0, t_max=10)
        avg = branch_average(recs)
        if model.kind == "markov-xor":
            want = r0.copy()
            for _ in range(10):
                want = markov_xor_step(want, 0.36)
        else:
            want = simulate(model, r0, steps=10)[-1].matrix
        worst_avg = max(worst_avg, np.abs(avg - want).max())
    model = sqrt_xor(0.36)
    ens = sample_ensemble(model, r0, t_max=10, n_samples=100_000, seed=20260819)
    want = simulate(model, r0, steps=10)[-1].matrix
    mc_dev = H.tdist(ens.mean_state.matrix, want)
    ok = worst_avg <= 1e-11 and mc_dev <= 5e-3
    _line("07", "branch enumeration and MC reproduce the average chain",
          ok, f"enumeration dev {worst_avg:.2e} <= 1e-11, MC(1e5) dev {mc_dev:.2e} <= 5e-3")
    assert ok


# -- 8: stationary compounds stay PPT ------------------------------------------

def test_criterion_08_stationary_ppt():
    worst = np.inf
    r0 = np.diag([0.3, 0.7]).astype(complex)
    for factory in (repeated_xor, sqrt_xor):
        for phi in np.linspace(0.05, 1.5, 20):
            st = stationary_state(factory(phi), r0)
            w = np.linalg.eigvalsh(partial_transpose(st, "mem"))
            worst = min(worst, float(w.min()))
    ok = worst >= -1e-10
    _line("08", "stationary compounds have positive partial transpose",
          ok, f"min PT eigenvalue {worst:.2e} >= -1e-10")
    assert ok


# -- 9: memory census and discord classification --------------------------------

def test_criterion_09_memory_census():
    r0 = np.diag([0.3, 0.7]).astype(complex)
    rep_q = nm_report(repeated_xor(np.pi / 6), r0)
    rep_c = nm_report(repeated_xor(0.0), r0)
    rep_m = nm_report(markov_xor(0.3), r0)
    rep_s = nm_report(sqrt_xor(0.3), r0)
    checks = [
        rep_q.count_qubits == 1,
        rep_q.discord > 1e-6,
        rep_q.classification == "quantum non-Markovian",
        abs(rep_c.discord) < 1e-7,
        rep_c.classification == "classical non-Markovian",
        rep_m.count_qubits == 0,
        rep_m.classification == "Markovian",
        rep_s.discord > 1e-6,
    ]
    ok = all(checks)
    _line("09", "memory counts and discord classification",
          ok, f"double: count {rep_q.count_qubits} discord {rep_q.discord:.3e}; "
              f"flat angle discord {rep_c.discord:.1e}; single-collision count {rep_m.count_qubits}; "
              f"split discord {rep_s.discord:.3e}")
    assert ok


# -- 10a: single-collision chain is CP-divisible ---------------------------------

def test_criterion_10a_markov_divisible():
    worst = np.inf
    for phi in (0.1, 0.3, np.pi / 6, 0.7):
        scan = divisibility_scan(system_maps(markov_xor(phi), 10))
        assert all(s.exists is not None for s in scan)
        worst = min(worst, min(s.min_choi_eig for s in scan))
    ok = worst >= -1e-9
    _line("10a", "single-collision reduced dynamics is CP-divisible",
          ok, f"min intermediate Choi eigenvalue {worst:.2e} >= -1e-9")
    assert ok


# -- 10b: a CP-violation witness for the split-collision reduced dynamics --------
#
# Expected RED. The reduced system dynamics of the split-collision chain is
# pure phase damping with one decaying coherence scale; every intermediate
# map in the scan comes out CP to round-off (min Choi eigenvalue around
# -1e-16) for every preparation angle and both standard memory starts. The
# required witness (< -1e-6 at some t <= 10) therefore never materializes.
# This is the dynamics, not the scan: the same scan says "not CP" on a
# well-conditioned partial-swap collision, which is not a dephasing channel
# (see the module docstring). The assertion is kept at its stated threshold
# and (phi, mem0) sample instead of being weakened.

def test_criterion_10b_split_collision_cp_witness():
    witness = np.inf
    for phi in (0.1, 0.3, np.pi / 6, 0.7, 1.2):
        for mem0 in (None, _molecule_density(phi)):
            scan = divisibility_scan(system_maps(sqrt_xor(phi), 10, mem0))
            eigs = [s.min_choi_eig for s in scan if s.min_choi_eig is not None]
            if eigs:
                witness = min(witness, min(eigs))
    ok = witness < -1e-6
    _line("10b", "split-collision dynamics shows a CP-divisibility witness",
          ok, f"most negative intermediate Choi eigenvalue {witness:.2e}, needs < -1e-6; "
              "all intermediate maps are CP, see the module docstring")
    assert ok


# -- 11: the advanced overlap layout needs two memory qubits ----------------------

def test_criterion_11_advanced_overlap():
    horizon = 6
    sched = advanced_overlap_schedule(horizon)
    count = satellite_count(sched)
    width = window_width(sched)
    model = custom_chain(xor_gate(), sched, phi=0.34)
    rng = np.random.default_rng(611)
    r0 = _rand_qubit(rng)
    window = simulate(model, r0, horizon)[-1].matrix
    brute = H.brute_force_final(H.advanced_overlap_events(horizon), horizon,
                                H.XOR_MOL_SYS, 0.34, r0, n_mol=horizon)
    dev = H.tdist(window, brute)
    ok = count == 2 and width == 4 and dev <= 1e-10
    _line("11", "advanced overlap: two satellites, 3-molecule window, brute-force match",
          ok, f"count {count} == 2, width {width} == 4, trace distance {dev:.2e} <= 1e-10")
    assert ok


# -- 12: correlation optimizer sanity ----------------------------------------------

def test_criterion_12_optimizer_sanity():
    rng = np.random.default_rng(612)
    worst_bound = 0.0
    bound_ok = True
    for _ in range(100):
        r = H.rand_rho(rng, 4)
        dm = DensityMatrix(r, ("mem", "sys"))
        j, _ = classical_correlation(dm)
        info = mutual_information(dm)
        bound_ok = bound_ok and (0.0 <= j <= info + 1e-9)
        worst_bound = max(worst_bound, j - info)
    cq_worst = 0.0
    for _ in range(5):
        p = rng.uniform(0.2, 0.8)
        r = (p * np.kron(np.diag([1.0, 0.0]), H.rand_rho(rng, 2))
             + (1 - p) * np.kron(np.diag([0.0, 1.0]), H.rand_rho(rng, 2)))
        cq_worst = max(cq_worst, abs(discord(DensityMatrix(r, ("mem", "sys")))))
    spot_worst = 0.0
    for _ in range(10):
        r = H.rand_rho(rng, 4)
        dm = DensityMatrix(r, ("mem", "sys"))
        j_pkg, _ = classical_correlation(dm)
        _, j_oracle = H.discord_oracle(r)
        spot_worst = max(spot_worst, abs(j_pkg - j_oracle))
    ok = bound_ok and cq_worst < 1e-7 and spot_worst <= 1e-7
    _line("12", "correlation optimizer bounds, zero-discord states, fine-grid spot checks",
          ok, f"J-I excess {worst_bound:.2e} <= 1e-9, flagged-state discord {cq_worst:.2e} < 1e-7, "
              f"oracle dev {spot_worst:.2e} <= 1e-7")
    assert ok
