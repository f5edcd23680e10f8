import itertools

import numpy as np
import pytest

import helpers as H
from nmchain.gates import (
    SQRT_HALF_I,
    UnitaryGate,
    apply_left,
    embed,
    molecule_state,
    sqrt_xor_gate,
    swap_gate,
    xor_gate,
)


def test_unitary_gate_validation():
    UnitaryGate(np.eye(2), ("a",))
    with pytest.raises(ValueError):
        UnitaryGate(np.eye(2) * 2.0, ("a",))
    with pytest.raises(ValueError):
        UnitaryGate(np.eye(4), ("a", "a"))
    with pytest.raises(ValueError):
        UnitaryGate(np.eye(4), ("a",))


def test_molecule_state_and_prepare():
    for phi in (0.0, 0.3, np.pi / 6, 1.2):
        v = molecule_state(phi)
        assert np.allclose(v, [np.cos(phi), np.sin(phi)])
        assert np.allclose(H.prep(phi) @ np.array([1.0, 0.0]), v)


def test_xor_gate_matrix():
    g = xor_gate()
    assert g.slot_roles == ("mol", "sys")
    assert np.array_equal(g.matrix, H.XOR_MOL_SYS)
    # flips the molecule exactly when the system bit is set
    for m in range(2):
        for s in range(2):
            out = g.matrix @ np.eye(4)[m * 2 + s]
            assert out[((m ^ s) * 2 + s)] == 1.0


def test_swap_gate_matrix():
    g = swap_gate()
    rng = np.random.default_rng(0)
    a, b = H.rand_rho(rng, 2), H.rand_rho(rng, 2)
    swapped = g.matrix @ np.kron(a, b) @ g.matrix.conj().T
    assert np.allclose(swapped, np.kron(b, a), atol=1e-15)


def test_swap_gate_is_one_shared_read_only_instance():
    # the role-ordered matrix cache is keyed on the gate instance
    assert swap_gate() is swap_gate()
    with pytest.raises(ValueError, match="read-only"):
        swap_gate().matrix[0, 0] = 7


def test_sqrt_xor_squares_to_xor():
    q = sqrt_xor_gate()
    assert q.slot_roles == ("sys", "mol")
    sq = q.matrix @ q.matrix
    # xor with control/target reversed in this ordering is a permuted literal
    want = np.zeros((4, 4), complex)
    for s in range(2):
        for m in range(2):
            want[s * 2 + (m ^ s), s * 2 + m] = 1.0
    assert np.abs(sq - want).max() == 0.0
    assert SQRT_HALF_I ** 2 == 0.5j


def test_sqrt_xor_against_index_oracle():
    got = embed(sqrt_xor_gate(), ("mol", "sys"), acting_on=("sys", "mol")).matrix
    want = H.sqrt_xor_mol_sys()
    assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_embed_matches_bit_shuffle_oracle(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(g)
    gate = UnitaryGate(q, ("x", "y"))
    register = ("a", "b", "c", "d")
    for acting in [("a", "b"), ("c", "a"), ("d", "b"), ("b", "d")]:
        got = embed(gate, register, acting_on=acting).matrix
        pos = [register.index(s) for s in acting]
        want = H.embed_front(q, 2, 4, pos)
        assert np.abs(got - want).max() < 1e-14


def test_embed_identity_cases():
    g = xor_gate()
    same = embed(g, ("mol", "sys"), acting_on=("mol", "sys"))
    assert np.array_equal(same.matrix, g.matrix)
    # embedding into a 3-slot register and acting trivially on the extra slot
    big = embed(g, ("mol", "mem", "sys"), acting_on=("mol", "sys"))
    rng = np.random.default_rng(1)
    r = H.rand_rho(rng, 2)
    state = np.kron(np.kron(np.diag([1.0, 0.0]), r), np.diag([0.0, 1.0])).astype(complex)
    out = big.matrix @ state @ big.matrix.conj().T
    want = np.kron(np.kron(np.diag([0.0, 1.0]), r), np.diag([0.0, 1.0]))
    assert np.allclose(out, want, atol=1e-15)


def test_embed_errors():
    g = xor_gate()
    with pytest.raises(ValueError):
        embed(g, ("a", "b"), acting_on=("a",))
    with pytest.raises(ValueError):
        embed(g, ("a", "b"), acting_on=("a", "a"))
    with pytest.raises(ValueError):
        embed(g, ("a", "b"), acting_on=("a", "zzz"))
    with pytest.raises(ValueError):
        embed(g, ("a", "a"), acting_on=("a", "a"))


def test_collision_sandwich_reproduces_oracle_unitary():
    """gate-swap-gate assembled through embed equals the index-built 8x8."""
    reg = ("mol", "mem", "sys")
    for kind, gate, acting in [
        ("double", xor_gate(), ("mol", "sys")),
        ("split", sqrt_xor_gate(), ("sys", "mol")),
    ]:
        u_g = embed(gate, reg, acting_on=acting).matrix
        u_sw = embed(swap_gate(), reg, acting_on=("mol", "mem")).matrix
        got = u_g @ u_sw @ u_g
        want = H.step_unitary(0.0, kind, with_prep=False)
        assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("n", range(2, 7))
def test_apply_gate_matches_embedded_sandwich(n):
    """Contracting the gate on two positions equals u rho u^dagger with
    u = embed(...): bit for bit for the named gates, to round-off for a
    random unitary; for one state and for stacks of one and two batch
    dimensions."""
    rng = np.random.default_rng(n)
    register = tuple(f"q{i}" for i in range(n))
    rho = H.rand_rho(rng, 2 ** n)
    stack = np.stack([H.rand_rho(rng, 2 ** n) for _ in range(3)])
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    # a second random gate with the same roles, run after the first: a plan or
    # matrix cache keyed on roles or label would hand it the first one's matrix.
    # The random gates are checked against the index-built embedding, which
    # shares no cache with apply_gate.
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    stack2 = np.stack([H.rand_rho(rng, 2 ** n) for _ in range(4)]).reshape(2, 2, 2 ** n, 2 ** n)
    gates = [(xor_gate(), True), (sqrt_xor_gate(), True),
             (UnitaryGate(q, ("x", "y")), False), (UnitaryGate(q2, ("x", "y")), False)]
    for gate, exact in gates:
        for pos in itertools.permutations(range(n), 2):
            if exact:
                u = embed(gate, register, acting_on=[register[p] for p in pos]).matrix
            else:
                u = H.embed_front(gate.matrix, 2, n, pos)
            for states in (rho, stack, stack2):
                got = H.apply_gate(states, gate, pos, n)
                want = np.stack([u @ r @ H.dag(u) for r in states.reshape(-1, 2 ** n, 2 ** n)]).reshape(states.shape)
                assert got.shape == states.shape
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_apply_gate_errors():
    g = xor_gate()
    rho = np.eye(8, dtype=complex) / 8
    for acting in [(0,), (0, 0), (0, 3), (-1, 0), (0, 1, 2)]:
        with pytest.raises(ValueError):
            H.apply_gate(rho, g, acting, 3)


def _controlled(gate: UnitaryGate) -> UnitaryGate:
    """gate on its own roles, controlled by a third qubit that comes first."""
    m = np.eye(8, dtype=complex)
    m[4:, 4:] = gate.matrix
    return UnitaryGate(m, ("c",) + gate.slot_roles, label=f"c-{gate.label}")


@pytest.mark.parametrize("n", range(2, 7))
def test_apply_left_matches_embedded_product(n):
    """The gate on two or three positions times a (2^n, m) matrix equals
    u @ w with u = embed(...): bit for bit for the named and controlled
    gates on a square w, to round-off for a random unitary and for narrow
    w, whose product u @ w BLAS may sum in another order."""
    rng = np.random.default_rng(40 + n)
    register = tuple(f"q{i}" for i in range(n))
    q2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    q3, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    ws = [rng.normal(size=(2 ** n, m)) + 1j * rng.normal(size=(2 ** n, m)) for m in (2 ** n, 2, 1)]
    cases = [(xor_gate(), True), (sqrt_xor_gate(), True), (UnitaryGate(q2, ("x", "y")), False),
             (_controlled(xor_gate()), True), (_controlled(sqrt_xor_gate()), True),
             (UnitaryGate(q3, ("x", "y", "z")), False)]
    for gate, exact in cases:
        for pos in itertools.permutations(range(n), gate.arity):
            if exact:
                u = embed(gate, register, acting_on=[register[p] for p in pos]).matrix
            else:
                u = H.embed_front(gate.matrix, gate.arity, n, pos)
            for w in ws:
                got = apply_left(w, gate, pos, n)
                assert got.shape == w.shape
                if exact and w.shape[1] == 2 ** n:
                    assert np.array_equal(got, u @ w)
                else:
                    assert np.abs(got - u @ w).max() <= 1e-15 * np.abs(u @ w).max()


def test_apply_left_errors():
    g = xor_gate()
    w = np.eye(8, dtype=complex)
    for acting in [(0,), (0, 0), (0, 3), (-1, 0), (0, 1, 2)]:
        with pytest.raises(ValueError):
            apply_left(w, g, acting, 3)
