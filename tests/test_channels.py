import numpy as np
import pytest

import helpers as H
from nmchain.chains import (
    build_embedding,
    custom_chain,
    markov_xor,
    markov_xor_kraus,
    overlap_schedule,
    repeated_xor,
    sqrt_xor,
    system_maps,
)
from nmchain.channels import (
    SINGULAR_CUTOFF,
    KrausSet,
    apply_kraus,
    choi,
    divisibility_scan,
    kraus_from_collision,
    map_from_probes,
    map_tomography,
    singular_values,
    tomography_probes,
    vec,
)
from nmchain.gates import UnitaryGate, molecule_state, swap_gate
from nmchain.linalg import DensityMatrix
from nmchain.trajectories import enumerate_branches


def _dephase_kraus(p):
    z = np.diag([1.0, -1.0]).astype(complex)
    return KrausSet((np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * z))


def _kraus_map(ks):
    """The superoperator of a qubit channel, from its action on the probes."""
    return map_tomography(lambda r: apply_kraus(ks, r), 2)


def test_kraus_set_validation():
    _dephase_kraus(0.3)
    with pytest.raises(ValueError):
        KrausSet((np.eye(2), np.eye(2)))  # sums to 2*I
    with pytest.raises(ValueError):
        KrausSet(())


def test_apply_kraus_reads_the_adjoints_formed_once():
    # the sum is the per-call op @ rho @ op^dagger sum from zeros, bit for
    # bit: signed zeros included, as the CLI prints them
    ks = build_embedding(sqrt_xor(0.7))[1]
    for op, adj in zip(ks.operators, ks.adjoints):
        assert np.array_equal(adj, op.conj().T)
    rng = np.random.default_rng(7)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mixed = g @ g.conj().T
    for rho in (np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex), mixed / np.trace(mixed)):
        want = np.zeros_like(rho)
        for op in ks.operators:
            want += op @ rho @ op.conj().T
        assert np.array_equal(apply_kraus(ks, rho).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("phi", [0.7, 0.0, -0.0])
def test_apply_kraus_is_the_two_term_sum_bit_for_bit(phi):
    # one stacked product in place of zeros + K0 rho K0^dagger + K1 rho K1^dagger:
    # same values and same signed zeros, for one state and for a stack
    # (phi = +-0 gives Kraus operators and states full of zeros)
    ks = build_embedding(sqrt_xor(phi))[1]
    assert ks.operators.shape == ks.adjoints.shape == (2, 4, 4)
    rng = np.random.default_rng(11)
    probes = np.stack([np.kron(np.diag([1.0, 0.0]), p) for p in tomography_probes(2)])
    randoms = np.stack([H.rand_rho(rng, 4) for _ in range(6)])
    for stack in (probes, randoms, -probes):
        got, want = stack, stack
        for _ in range(12):
            got = apply_kraus(ks, got)
            loop = np.zeros_like(want)
            for op in ks.operators:
                loop += op @ want @ op.conj().T
            want = loop
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        for one, many in zip(stack, apply_kraus(ks, stack)):
            assert np.array_equal(apply_kraus(ks, one).view(np.int64), many.view(np.int64))


@pytest.mark.parametrize("kind", ["double", "split"])
@pytest.mark.parametrize("phi", [0.3, np.pi / 6, 1.1])
def test_kraus_from_collision_matches_block_oracle(kind, phi):
    model = repeated_xor(phi) if kind == "double" else sqrt_xor(phi)
    step, kraus = build_embedding(model)
    want0, want1 = H.kraus_pair(phi, kind)
    assert np.abs(kraus.operators[0] - want0).max() < 1e-14
    assert np.abs(kraus.operators[1] - want1).max() < 1e-14
    # and through the public constructor directly
    direct = kraus_from_collision(step, molecule_state(phi))
    for a, b in zip(direct.operators, kraus.operators):
        assert np.abs(a - b).max() == 0.0


def test_apply_kraus_and_selective():
    ks = _dephase_kraus(0.25)
    r = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = apply_kraus(ks, r)
    assert np.allclose(out, [[0.5, 0.25], [0.25, 0.5]])
    dm = DensityMatrix(r, slots=("sys",))
    out_dm = apply_kraus(ks, dm)
    assert isinstance(out_dm, DensityMatrix) and out_dm.slots == ("sys",)
    # the selective readout is the walker's: branch l of one collision is
    # K_l r K_l^dagger normalised by its probability, Kraus operator l being outcome l
    ops = markov_xor_kraus(0.3).operators
    recs = enumerate_branches(markov_xor(0.3), r, t_max=1)
    assert [rec.outcomes for rec in recs] == [(0,), (1,)]
    for rec in recs:
        (lam,) = rec.outcomes
        raw = ops[lam] @ r @ ops[lam].conj().T
        p = np.trace(raw).real
        assert rec.probability == pytest.approx(p, abs=1e-15)
        assert np.allclose(rec.conditional_states[-1].matrix, raw / p, atol=1e-14)
    assert sum(rec.probability for rec in recs) == pytest.approx(1.0, abs=1e-14)


def test_vec_unvec_column_stacking():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(m), [1, 3, 2, 4])
    assert np.array_equal(vec(m).reshape(2, 2, order="F"), m)


def test_map_tomography_agrees_with_direct_application():
    rng = np.random.default_rng(2)
    ks = _dephase_kraus(0.3)
    lm = _kraus_map(ks)
    # trace preservation: vec(I)^dagger S = vec(I)^dagger
    ident = vec(np.eye(2))
    assert np.abs(ident @ lm - ident).max() < 1e-12
    for _ in range(5):
        r = H.rand_rho(rng, 2)
        assert np.allclose(H.superop_apply(lm, r), apply_kraus(ks, r), atol=1e-14)


def _identity_map():
    return np.eye(4, dtype=complex)


def test_choi_of_known_channels():
    ident = choi(_identity_map())
    v = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.allclose(ident, np.outer(v, v))
    assert H.min_choi_eigenvalue(ident) == pytest.approx(0.0, abs=1e-13)
    dephase = choi(_kraus_map(_dephase_kraus(0.3)))
    assert H.min_choi_eigenvalue(dephase) >= -1e-9
    # transpose map is the canonical non-CP positive map
    swap = np.zeros((4, 4), complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), complex)
            e[i, j] = 1.0
            swap[:, j * 2 + i] = vec(e.T)
    assert H.min_choi_eigenvalue(choi(swap)) == pytest.approx(-1.0, abs=1e-12)


def test_choi_matches_oracle_for_collision_maps():
    for kind, model in [("double", repeated_xor(0.35)), ("split", sqrt_xor(0.35))]:
        mem = np.diag([1.0, 0.0]).astype(complex)
        s = H.sys_map_oracle(0.35, kind, mem, 3)
        got = choi(s)
        assert np.abs(got - H.choi_oracle(s)).max() < 1e-13


def test_map_tomography_reconstructs_kraus_map():
    ks = _dephase_kraus(0.45)
    # column stacking: vec(K rho K^dagger) = (conj(K) kron K) vec(rho)
    lm = sum(np.kron(op.conj(), op) for op in ks.operators)
    rebuilt = map_tomography(lambda r: apply_kraus(ks, r), 2)
    assert np.abs(rebuilt - lm).max() < 1e-13


def test_map_tomography_four_dimensional():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(g)
    rebuilt = map_tomography(lambda r: u @ r @ u.conj().T, 4)
    assert np.abs(rebuilt - np.kron(u.conj(), u)).max() < 1e-12


def test_map_from_probes_inverts_the_probe_outputs():
    rng = np.random.default_rng(13)
    for dim in (2, 3):
        probes = tomography_probes(dim)
        assert len(probes) == dim * dim
        for p in probes:
            assert np.array_equal(p, p.conj().T)
            assert abs(np.trace(p) - 1.0) < 1e-15
            assert np.linalg.eigvalsh(p).min() > -1e-15
        # Hermiticity-preserving, as every map probed by physical states is
        a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
        g = np.kron(a.conj(), a) - 0.5 * np.kron(b.conj(), b)
        outputs = [H.superop_apply(g, p) for p in probes]
        assert np.abs(map_from_probes(outputs, dim) - g).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_map_from_probes_equals_per_slice_calls(dim):
    # probe outputs (P, 2, 3, dim, dim) give one map per stack entry, bit for bit
    rng = np.random.default_rng(dim)
    outputs = rng.normal(size=(dim * dim, 2, 3, dim, dim)) + 1j * rng.normal(size=(dim * dim, 2, 3, dim, dim))
    got = map_from_probes(outputs, dim)
    assert got.shape == (2, 3, dim * dim, dim * dim)
    for k in np.ndindex(2, 3):
        one = map_from_probes([o[k] for o in outputs], dim)
        assert np.array_equal(got[k].view(np.uint64), one.view(np.uint64))


def test_singular_values_match_lapack():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = singular_values(m)
        want = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(got, want, atol=1e-11)


@pytest.mark.parametrize("sigma", [1e-9, 3e-10, 3e-11, 1e-12])
def test_singular_values_resolve_known_smallest(sigma):
    # squaring m (eigenvalues of m^dagger m) cannot resolve sigma near the cutoff;
    # abs covers the round-off in forming m itself (~1e-16 against sigma_max = 1)
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    m = u @ np.diag([1.0, 0.5, 0.2, sigma]) @ v.conj().T
    assert singular_values(m)[-1] == pytest.approx(sigma, rel=1e-6, abs=1e-15)
    if sigma < SINGULAR_CUTOFF:
        step = divisibility_scan([m, _identity_map()])[1]
        assert step.exists is None
        assert step.smallest_singular == pytest.approx(sigma, rel=1e-6, abs=1e-15)


def test_divisibility_step_recovers_intermediate():
    a = _kraus_map(_dephase_kraus(0.2))
    b = _kraus_map(_dephase_kraus(0.35))
    total = b @ a
    step = divisibility_scan([a, total])[1]
    assert step.exists is True
    assert step.min_choi_eig >= -1e-12
    assert np.abs(step.intermediate - b).max() < 1e-12


def test_divisibility_step_indeterminate_on_singular_previous():
    # a completely depolarizing-style rank-deficient map
    sink = np.zeros((4, 4), complex)
    sink[:, 0] = vec(np.diag([1.0, 0.0]))
    sink[:, 3] = vec(np.diag([1.0, 0.0]))
    step = divisibility_scan([sink, _identity_map()])[1]
    assert step.exists is None
    assert step.intermediate is None and step.min_choi_eig is None
    assert step.smallest_singular < 1e-10


def _rotated_dephasing(lam, u):
    # coherences of the rotated basis scaled by lam
    su = np.kron(u.conj(), u)
    return su @ np.diag([1.0, lam, lam, 1.0]) @ su.conj().T


def test_divisibility_step_round_off_is_indeterminate():
    # lam then lam/2 is CP-divisible by construction; at these coherences the
    # solve's round-off leaves most intermediate Choi matrices far from
    # Hermitian, and those steps must come back undecided, not raise
    rng = np.random.default_rng(3)
    rotations = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(40)]
    for lam in (1e-9, 3e-10):
        undecided = 0
        for u in rotations:
            prev = _rotated_dephasing(lam, u)
            step = divisibility_scan([prev, _rotated_dephasing(lam / 2, u)])[1]
            assert step.smallest_singular == singular_values(prev)[-1]
            assert step.smallest_singular >= SINGULAR_CUTOFF
            if step.exists is None:
                undecided += 1
                assert step.intermediate is None and step.min_choi_eig is None
        assert undecided >= 30


def test_divisibility_scan_shapes():
    maps = [_kraus_map(_dephase_kraus(0.1 * (t + 1))) for t in range(4)]
    scan = divisibility_scan(maps)
    assert len(scan) == 4
    assert all(s.exists is True for s in scan)
    assert divisibility_scan([]) == []
    assert divisibility_scan(np.zeros((0, 4, 4), complex)) == []
    # the stacked and listed forms of the same maps give the same steps
    _assert_same_steps(divisibility_scan(np.stack(maps)), scan)


@pytest.mark.parametrize("shape, match", [
    ((4, 4), "stack of superoperators"),
    ((1, 2, 4, 4), "stack of superoperators"),
    ((3, 4, 2), "stack of superoperators"),
    ((3, 3, 3), "not a perfect square"),
])
def test_divisibility_scan_rejects_malformed_stacks(shape, match):
    with pytest.raises(ValueError, match=match):
        divisibility_scan(np.ones(shape, complex))


def _partial_swap_maps(theta):
    u = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * swap_gate().matrix
    return system_maps(custom_chain(UnitaryGate(u, ("mol", "sys")), overlap_schedule(11), phi=0.4), 10)


@pytest.mark.parametrize("theta, false_steps, worst, sigma", [
    (0.7, [3], -7.179e-3, 0.1907),
    (1.2, [2, 4, 6, 8, 10], -44.07, 0.01230),
])
def test_divisibility_scan_says_false_on_a_partial_swap(theta, false_steps, worst, sigma):
    # positive control: exp(-i theta SWAP) = cos(theta) I - i sin(theta) SWAP
    # is no system-controlled collision, and the scan finds CP violations
    # at well-conditioned steps
    scan = divisibility_scan(_partial_swap_maps(theta))
    assert all(s.exists is not None for s in scan)
    assert [t for t, s in enumerate(scan, 1) if s.exists is False] == false_steps
    low = min(scan, key=lambda s: s.min_choi_eig)
    assert low.min_choi_eig == pytest.approx(worst, rel=1e-3)
    assert low.smallest_singular == pytest.approx(sigma, rel=1e-3)


def _assert_same_steps(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.exists is w.exists
        assert (g.min_choi_eig, g.smallest_singular) == (w.min_choi_eig, w.smallest_singular)
        if w.intermediate is None:
            assert g.intermediate is None
        else:
            assert np.array_equal(g.intermediate, w.intermediate)


def test_stacked_scan_equals_the_per_step_checks():
    # repeated-xor: every accumulated map from step 1 on is singular
    maps = system_maps(repeated_xor(0.4), 9)
    scan = divisibility_scan(maps)
    _assert_same_steps(scan, H.divisibility_scan_oracle(maps))
    assert all(s.exists is None for s in scan[1:])
    # rotated dephasing: invertible predecessors whose intermediate Choi
    # matrices round-off leaves non-Hermitian
    rng = np.random.default_rng(3)
    undecided = 0
    for _ in range(20):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        maps = [_rotated_dephasing(1e-9, u), _rotated_dephasing(5e-10, u)]
        scan = divisibility_scan(maps)
        _assert_same_steps(scan, H.divisibility_scan_oracle(maps))
        undecided += scan[1].exists is None and scan[1].smallest_singular >= SINGULAR_CUTOFF
    assert undecided >= 10
    # both partial-swap witnesses, with their false steps
    for theta in (0.7, 1.2):
        maps = _partial_swap_maps(theta)
        scan = divisibility_scan(maps, cp_tol=1e-9)
        _assert_same_steps(scan, H.divisibility_scan_oracle(maps, cp_tol=1e-9))
        assert any(s.exists is False for s in scan)


def test_divisibility_step_equals_the_per_step_check():
    maps = _partial_swap_maps(1.2)
    for prev, cur in zip(maps, maps[1:]):
        _assert_same_steps([divisibility_scan([prev, cur])[1]], [H.divisibility_step_oracle(cur, prev)])


@pytest.mark.parametrize("tols", [
    {"cp_tol": np.nan}, {"cp_tol": -1.0}, {"cp_tol": np.inf}, {"cp_tol": -np.inf},
])
def test_divisibility_rejects_bad_tolerances(tols):
    # nan or negative cp_tol used to answer "not CP" at every step, inf "CP"
    maps = system_maps(markov_xor(0.3), 3)
    with pytest.raises(ValueError, match="finite and non-negative"):
        divisibility_scan(maps, **tols)


def test_choi_matrix_validation():
    # rho -> D rho with D = diag(1, 2) keeps no Hermiticity: its Choi matrix
    # is far from Hermitian, so the step is left undecided, not judged
    skewed = np.kron(np.eye(2), np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="far from Hermitian"):
        H.min_choi_eigenvalue(choi(skewed))
    step = divisibility_scan([skewed])[0]
    assert step.exists is None
    assert step.intermediate is None and step.min_choi_eig is None
    assert step.smallest_singular == 1.0
