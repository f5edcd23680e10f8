import itertools
import numpy as np
import pytest

import helpers as H
from nmchain.channels import kraus_from_collision
from nmchain.gates import molecule_state, xor_gate
from nmchain.linalg import (
    DensityMatrix,
    as_matrix,
    check_states,
    dagger,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    tensor,
    trace_front,
    trace_norm_distance,
    von_neumann_entropy,
)


def test_as_matrix_unwraps_states_and_coerces_arrays():
    rho = DensityMatrix(np.diag([0.25, 0.75]), slots=("sys",))
    assert as_matrix(rho) is rho.matrix
    m = as_matrix([[1, 0], [0, 0]])
    assert m.dtype == complex and np.array_equal(m, np.diag([1.0, 0.0]))


def test_dagger_and_tensor():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3j]])
    assert np.array_equal(dagger(a), a.conj().T)
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(tensor(a, b), np.kron(a, b))
    # first factor is the most significant slot
    z = np.diag([1.0, -1.0])
    t = tensor(z, np.eye(2))
    assert np.allclose(t, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_tensor_takes_a_stack_as_its_last_factor():
    # each member of the result is np.kron of the factors, bit for bit,
    # signed zeros included; a stack anywhere but last is refused
    rng = np.random.default_rng(12)

    def signed(*shape):
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        zeros = rng.random(shape) < 0.3
        z.real[zeros] = -0.0
        z.imag[rng.random(shape) < 0.3] = -0.0
        z[rng.random(shape) < 0.1] = 0.0
        return z

    def same_bits(x, y):
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
        return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))

    a = signed(2, 2)
    for front, stack in ((a, signed(5, 2, 2)), (a, signed(2, 3, 2, 2)), (signed(2, 1), signed(3, 4)),
                         (signed(2, 1), signed(2, 3, 4))):
        got = tensor(front, stack)
        members = stack.reshape((-1,) + stack.shape[-2:])
        want = np.stack([np.kron(front, m) for m in members])
        assert same_bits(got, want.reshape(stack.shape[:-2] + want.shape[-2:]))
    b = signed(4, 2, 2)
    got = tensor(a, a, b)
    assert same_bits(got, np.stack([np.kron(np.kron(a, a), m) for m in b]))
    for ops in ((b, a), (a, b, a), (np.ones(2), a), (a, np.ones(2))):
        with pytest.raises(ValueError, match="a stack only as the last"):
            tensor(*ops)


def test_pure_state_validation():
    # a pure state is its plain amplitude vector; kraus_from_collision, the
    # one function that takes a molecule from outside, refuses a norm off 1,
    # NaN or inf
    v = molecule_state(np.pi / 4)
    assert v.shape == (2,)
    assert np.allclose(np.outer(v, v.conj()), 0.5 * np.ones((2, 2)))
    for amps in ([1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="norm"):
            kraus_from_collision(xor_gate(), np.array(amps))


def test_density_matrix_validation():
    DensityMatrix(np.diag([0.5, 0.5]), slots=("sys",))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]), slots=("sys",))   # trace
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]), slots=("sys",))  # hermiticity
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.5, 0.5]), slots=("a", "b"))  # slot/dim mismatch
    neg = DensityMatrix(np.diag([1.5, -0.5]), slots=("sys",))
    with pytest.raises(ValueError):
        neg.validate_positive()


def _dm_error(m):
    with pytest.raises(ValueError) as err:
        DensityMatrix(m, ("a", "b")[: int(np.log2(len(m)))])
    return str(err.value)


# one bad state of each kind, and the message it raises on its own
_BAD_STATES = {
    "non-finite": (np.diag([np.nan, 1.0]), "density matrix has non-finite entries"),
    "non-Hermitian": (np.array([[0.5, 0.25], [0.0, 0.5]]), "density matrix not Hermitian (residual 2.500e-01)"),
    "off-trace": (np.diag([0.7, 0.7]), "density matrix trace (1.4+0j) differs from 1"),
}


@pytest.mark.parametrize("kind", list(_BAD_STATES))
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_check_states_raises_as_density_matrix_on_the_bad_state(kind, shape):
    bad, message = _BAD_STATES[kind]
    rng = np.random.default_rng(7)
    stack = np.stack([H.rand_rho(rng, 2) for _ in range(int(np.prod(shape)))]).reshape(shape + (2, 2))
    check_states(stack)  # a valid stack passes
    assert _dm_error(bad) == message
    for index in np.ndindex(shape):
        broken = stack.copy()
        broken[index] = bad
        with pytest.raises(ValueError) as err:
            check_states(broken)
        assert str(err.value) == message


def test_check_states_raises_for_the_first_bad_state():
    rng = np.random.default_rng(8)
    stack = np.stack([H.rand_rho(rng, 4) for _ in range(6)])
    check_states(stack)
    check_states(stack[0])
    check_states(stack[:0])
    for first, later in [("non-finite", "non-Hermitian"), ("non-Hermitian", "non-finite"), ("off-trace", "non-finite")]:
        broken = stack.copy()
        broken[2] = np.kron(np.diag([1.0, 0.0]), _BAD_STATES[first][0])
        broken[4] = np.kron(np.diag([1.0, 0.0]), _BAD_STATES[later][0])
        with pytest.raises(ValueError) as err:
            check_states(broken)
        assert str(err.value) == _dm_error(broken[2])


def test_pure_density_roundtrip():
    rng = np.random.default_rng(7)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    dm = DensityMatrix(np.outer(v, v.conj()), slots=("a", "b"))
    assert np.allclose(dm.matrix, np.outer(v, v.conj()))
    assert dm.slots == ("a", "b")


# traced by trace_front as a (2, 3) stack, which must give each state's own result
_STACKED = (4, (2, 3))


def _slots(n):
    return tuple(f"q{k}" for k in range(n))


@pytest.mark.parametrize("n,keep", [(2, (0,)), (2, (1,)), (3, (0, 2)), (3, (1,)), (4, (1, 3)), _STACKED])
def test_partial_trace_against_einsum(n, keep):
    rng = np.random.default_rng(n * 10 + keep[0])
    if (n, keep) == _STACKED:
        rs = np.stack([H.rand_rho(rng, 2 ** n) for _ in range(6)]).reshape(2, 3, 2 ** n, 2 ** n)
        got = trace_front(rs, n - len(keep))
        assert got.shape == (2, 3, 4, 4)
        assert all(np.array_equal(g.view(np.uint64), trace_front(r, n - len(keep)).view(np.uint64))
                   for g, r in zip(got.reshape(6, 4, 4), rs.reshape(6, 2 ** n, 2 ** n)))
        r, got = rs[1, 2], got[1, 2]
    else:
        r = H.rand_rho(rng, 2 ** n)
        got = partial_trace(DensityMatrix(r, _slots(n)), [_slots(n)[q] for q in keep]).matrix
    want = H.ptrace_general(r, n, list(keep))
    assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 6))
def test_partial_trace_traces_each_run_of_slots_at_once(n):
    # every keep set of six states against one np.trace per traced qubit:
    # the same bits, signed zeros included, when one slot is traced (the
    # traffic of measures), round-off otherwise; partial_trace keeps at
    # least one slot, so the empty keep set is trace_front of all n
    rng = np.random.default_rng(70 + n)
    slots = _slots(n)
    for a in H.signed_zero_states(rng, n, 6):
        rho = DensityMatrix(a, slots)
        for size in range(n + 1):
            for keep in itertools.combinations(range(n), size):
                if keep:
                    got = partial_trace(rho, [slots[q] for q in keep]).matrix
                else:
                    got = trace_front(a, n)
                want = H.ptrace_per_qubit(a, n, keep)
                assert got.shape == want.shape == (2 ** size, 2 ** size)
                if size == n - 1:
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), keep
                else:
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), keep


def test_partial_trace_slot_names():
    rng = np.random.default_rng(3)
    r = H.rand_rho(rng, 8)
    dm = DensityMatrix(r, slots=("mol", "mem", "sys"))
    sub = partial_trace(dm, keep=("mem", "sys"))
    assert sub.slots == ("mem", "sys")
    assert np.allclose(sub.matrix, H.ptrace_general(r, 3, [1, 2]), atol=1e-14)
    # order of `keep` does not reorder the register
    same = partial_trace(dm, keep=("sys", "mem"))
    assert np.allclose(sub.matrix, same.matrix)


def test_partial_transpose_is_transpose_on_factor():
    rng = np.random.default_rng(11)
    a, b = H.rand_rho(rng, 2), H.rand_rho(rng, 2)
    prod = DensityMatrix(np.kron(a, b), slots=("mem", "sys"))
    assert np.allclose(partial_transpose(prod, "mem"), np.kron(a.T, b))
    assert np.allclose(partial_transpose(prod, "sys"), np.kron(a, b.T))
    r = DensityMatrix(H.rand_rho(rng, 4), slots=("mem", "sys"))
    twice = partial_transpose(DensityMatrix(partial_transpose(r, "mem"), r.slots), "mem")
    assert np.allclose(twice, r.matrix)
    with pytest.raises(ValueError):
        partial_transpose(r, "nope")


def test_partial_transpose_flags_entanglement():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    bell = DensityMatrix(np.outer(v, v), slots=("mem", "sys"))
    w = np.linalg.eigvalsh(partial_transpose(bell, "mem"))
    assert w.min() < -0.49


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 8, 16, 32, 64])
def test_eig_hermitian_matches_lapack(dim):
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = g + g.conj().T
    w, v = eig_hermitian(a)
    ref = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.allclose(w, ref, atol=1e-11)
    assert np.all(np.diff(w) <= 1e-12)  # descending
    assert np.allclose(v @ np.diag(w) @ dagger(v), a, atol=1e-11)
    assert np.allclose(dagger(v) @ v, np.eye(dim), atol=1e-12)


def test_eig_hermitian_near_degenerate():
    # tiny off-diagonal couplings must not stall the sweep
    a = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
    a[0, 1] = 1e-9
    a[1, 0] = 1e-9
    w, _ = eig_hermitian(a)
    assert np.allclose(w, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-13)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_hermitian(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
    for shape in ((4,), (2, 3), (5, 2, 3)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            eig_hermitian(np.zeros(shape))


def test_eig_hermitian_stacks_equal_per_matrix_calls():
    rng = np.random.default_rng(17)
    g = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    a = g + dagger(g)
    w, v = eig_hermitian(a)
    assert w.shape == (2, 3, 4) and v.shape == (2, 3, 4, 4)
    for k in np.ndindex(2, 3):
        w1, v1 = eig_hermitian(a[k])
        assert np.array_equal(w[k], w1) and np.array_equal(v[k], v1)


def test_entropy_golden_and_edge_cases():
    assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(
        0.8112781244591328, abs=1e-14)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(5)
    r = H.rand_rho(rng, 4)
    assert von_neumann_entropy(r) == pytest.approx(H.entropy_oracle(r), abs=1e-11)


def test_trace_norm_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_norm_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(9)
    x, y = H.rand_rho(rng, 4), H.rand_rho(rng, 4)
    assert trace_norm_distance(x, y) == pytest.approx(H.tdist(x, y), abs=1e-11)
    assert trace_norm_distance(x, x) <= 1e-13
