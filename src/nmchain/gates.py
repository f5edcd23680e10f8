"""Collision gates and register embedding.

A gate carries its matrix together with a tuple of slot roles written in
the same ordering convention as the rest of the package (first role = most
significant bit). embed() places a gate into a larger named register so
callers never do index bookkeeping by hand; apply_left() multiplies a
matrix by the gate on given register positions without building the
embedded matrix (embed is apply_left on the identity). Both place the gate
afresh on each call: they run once per compiled step shape, not per step.

The controlled gates here use the system qubit as control and the fresh
molecule as target; the two constructors expose whichever slot ordering
makes their matrix most readable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def molecule_state(phi: float) -> np.ndarray:
    """Amplitudes of a fresh molecule qubit: cos(phi)|0> + sin(phi)|1>."""
    return np.array([np.cos(phi), np.sin(phi)], dtype=complex)


def _shared(matrix, roles: tuple[str, ...], label: str) -> UnitaryGate:
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
# the identity's rows in the order |00>, |10>, |01>, |11>
_SWAP = _shared(np.eye(4)[[0, 2, 1, 3]], ("a", "b"), "swap")
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
    """Exchange of two qubits. Every call returns the same instance; its matrix is read-only."""
    return _SWAP


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
    u = apply_left(np.eye(2 ** n, dtype=complex), gate, positions, n)
    return UnitaryGate(u, register, label=gate.label)


def apply_left(w: np.ndarray, gate: UnitaryGate, acting: Sequence[int], n_qubits: int) -> np.ndarray:
    """u @ w, u = the gate on register positions `acting` (role order, 0 = most
    significant qubit), for a (2^n, m) matrix w, without building u.

    One (2^k, 2^k) @ (2^k, rest) product, the one np.tensordot makes; each
    entry sums the gate's terms in the order of the embedded product u @ w.
    """
    w = np.asarray(w)
    k = gate.arity
    if len(acting) != k or len(set(acting)) != k or not all(0 <= q < n_qubits for q in acting):
        raise ValueError(f"cannot place a {k}-qubit gate on positions {acting} of {n_qubits} qubits")
    order = sorted(range(k), key=acting.__getitem__)
    front = sorted(acting)
    perm = front + [a for a in range(n_qubits + 1) if a not in front]
    m = gate.matrix.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order]).reshape(2 ** k, 2 ** k)
    t = w.reshape((2,) * n_qubits + (-1,)).transpose(perm)
    inverse = sorted(range(n_qubits + 1), key=perm.__getitem__)
    return (m @ t.reshape(2 ** k, -1)).reshape(t.shape).transpose(inverse).reshape(w.shape)
