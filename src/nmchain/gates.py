"""Collision gates and register embedding.

A gate carries its matrix together with a tuple of slot roles written in
the same ordering convention as the rest of the package (first role = most
significant bit). embed() places a gate into a larger named register so
callers never do index bookkeeping by hand; apply_gate() applies it to
states by register position without building the embedded matrix.

The controlled gates here use the system qubit as control and the fresh
molecule as target; the two constructors expose whichever slot ordering
makes their matrix most readable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import PureState

UNITARITY_TOL = 1e-12

# branch of sqrt(i/2): squares to i/2, which makes sqrt_xor_gate()^2 the plain xor
SQRT_HALF_I = (1.0 + 1.0j) / 2.0


@dataclass(frozen=True, eq=False)
class UnitaryGate:
    matrix: np.ndarray
    slot_roles: tuple[str, ...]
    label: str = ""

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        roles = tuple(self.slot_roles)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "slot_roles", roles)
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate slot roles {roles}")
        d = 2 ** len(roles)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not fit {len(roles)} slots")
        dev = np.abs(m @ m.conj().T - np.eye(d)).max()
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (residual {dev:.3e})")

    @property
    def arity(self) -> int:
        return len(self.slot_roles)


def molecule_state(phi: float) -> PureState:
    """Fresh molecule qubit: cos(phi)|0> + sin(phi)|1>."""
    return PureState(np.array([np.cos(phi), np.sin(phi)], dtype=complex))


def _shared(matrix: list, roles: tuple[str, ...], label: str) -> UnitaryGate:
    """A gate built and validated once, at import, with a read-only matrix."""
    gate = UnitaryGate(np.array(matrix, dtype=complex), roles, label=label)
    gate.matrix.flags.writeable = False
    return gate


_XOR = _shared(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    ("mol", "sys"),
    "xor",
)
_SQRT_XOR = _shared(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, SQRT_HALF_I, -1j * SQRT_HALF_I],
        [0, 0, -1j * SQRT_HALF_I, SQRT_HALF_I],
    ],
    ("sys", "mol"),
    "sqrt-xor",
)


def xor_gate() -> UnitaryGate:
    """Molecule flips when the system is set; written in |mol, sys> ordering.

    Every call returns the same instance; its matrix is read-only.
    """
    return _XOR


def swap_gate() -> UnitaryGate:
    m = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    return UnitaryGate(m, ("a", "b"), label="swap")


def sqrt_xor_gate() -> UnitaryGate:
    """Square root of the controlled flip; written in |sys, mol> ordering.

    The lower block is sqrt(i/2) * (I - i sigma_x); squaring the full gate
    reproduces xor_gate() exactly. Every call returns the same instance; its
    matrix is read-only.
    """
    return _SQRT_XOR


def embed(gate: UnitaryGate, register_slots: Sequence[str], acting_on: Sequence[str]) -> UnitaryGate:
    """Expand a gate to a named register.

    acting_on lists the register slots receiving the gate's roles, in role
    order, so embed(g, ("a", "b", "c"), ("c", "a")) puts g's first role on
    slot "c" and its second on slot "a".
    """
    register = tuple(register_slots)
    acting = tuple(acting_on)
    if len(set(register)) != len(register):
        raise ValueError(f"duplicate register slots {register}")
    if len(acting) != gate.arity:
        raise ValueError(f"gate has {gate.arity} slots but acting_on names {len(acting)}")
    if len(set(acting)) != len(acting):
        raise ValueError(f"repeated slots in acting_on={acting}")
    try:
        positions = [register.index(s) for s in acting]
    except ValueError:
        missing = [s for s in acting if s not in register]
        raise ValueError(f"slots {missing} not in register {register}") from None

    n = len(register)
    order, (ket, _) = _plan(0, n, tuple(positions))
    u = _side(np.eye(2 ** n, dtype=complex).reshape((2,) * (2 * n)), _ordered(gate, order)[0], ket)
    return UnitaryGate(u.reshape(2 ** n, 2 ** n), register, label=gate.label)


def apply_gate(states: np.ndarray, gate: UnitaryGate, acting: Sequence[int], n_qubits: int) -> np.ndarray:
    """u rho u^dagger, u = the gate on register positions `acting` (role order,
    0 = most significant qubit), for one state or a stack (..., 2^n, 2^n).
    The gate is applied on the ket axes, then its conjugate on the bra axes.
    """
    states = np.asarray(states)
    if len(acting) != gate.arity:
        raise ValueError(f"cannot place a {gate.arity}-qubit gate on positions {acting} of {n_qubits} qubits")
    order, (ket, bra) = _plan(states.ndim - 2, n_qubits, tuple(acting))
    m, m_conj = _ordered(gate, order)
    t = states.reshape(states.shape[:-2] + (2,) * (2 * n_qubits))
    return _side(_side(t, m, ket), m_conj, bra).reshape(states.shape)


PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(batch_ndim: int, n_qubits: int, acting: tuple[int, ...]):
    """Role order and the (permutation, inverse) of the ket and bra sides.

    The order lists the roles by register position; each permutation brings
    that side's acting axes to the front, in register order, ahead of every
    other axis in its original order.
    """
    if len(set(acting)) != len(acting) or not all(0 <= q < n_qubits for q in acting):
        raise ValueError(f"cannot place a {len(acting)}-qubit gate on positions {acting} of {n_qubits} qubits")
    order = tuple(sorted(range(len(acting)), key=acting.__getitem__))
    sides = []
    for offset in (batch_ndim, batch_ndim + n_qubits):
        front = sorted(offset + q for q in acting)
        perm = front + [a for a in range(batch_ndim + 2 * n_qubits) if a not in front]
        sides.append((tuple(perm), tuple(np.argsort(perm).tolist())))
    return order, tuple(sides)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _ordered(gate: UnitaryGate, order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The gate matrix with its roles in register order, and its conjugate.

    Keyed on the gate instance (gates compare by identity), so two gates
    with the same roles never share an entry.
    """
    k = gate.arity
    m = gate.matrix.reshape((2,) * (2 * k)).transpose(order + tuple(k + i for i in order))
    m = np.ascontiguousarray(m.reshape(2 ** k, 2 ** k))
    m_conj = m.conj()
    m.flags.writeable = m_conj.flags.writeable = False
    return m, m_conj


def _side(t: np.ndarray, m: np.ndarray, side) -> np.ndarray:
    """Apply the role-ordered matrix m to the axes that side's permutation brings to the front.

    One (2^k, 2^k) @ (2^k, rest) product, the one np.tensordot makes, so each
    entry sums its terms in the order of the embedded product u @ rho and
    equals it bit for bit.
    """
    perm, inverse = side
    t = t.transpose(perm)
    return (m @ t.reshape(m.shape[1], -1)).reshape(t.shape).transpose(inverse)
