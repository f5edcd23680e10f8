"""Dense complex linear algebra for small qubit registers.

Conventions used by the whole package:

* a register is a tuple of named qubit slots; the FIRST slot owns the most
  significant bit of the matrix index, so a state on ("a", "b", "c") is
  indexed like |abc>,
* density matrices are complex128 arrays validated on construction
  (check_states, which also takes stacks), and tensor() is the one
  Kronecker product; its last factor may be a stack,
* trace_front, which traces out the leading qubits of a state or a stack,
  is the one partial-trace kernel,
* entropies are in bits (log base 2),
* Hermitian eigenproblems go to LAPACK through numpy.linalg.eigh.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
ENTROPY_EIG_FLOOR = 1e-15


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of one matrix or of each matrix of a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def tensor(*ops) -> np.ndarray:
    """Kronecker product; the first factor takes the most significant indices.

    Every factor is one matrix, except the last, which may be a stack
    (..., m, n): the result is then the stack of products with each of its
    matrices. Each entry is one product of factor entries, as in np.kron.
    """
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    ops = [np.asarray(op, dtype=complex) for op in ops]
    if any(op.ndim != 2 for op in ops[:-1]) or ops[-1].ndim < 2:
        raise ValueError(f"tensor() takes matrices, a stack only as the last; got {[op.shape for op in ops]}")
    out = ops[0]
    for b in ops[1:]:
        shape = (out.shape[0] * b.shape[-2], out.shape[1] * b.shape[-1])
        out = (out[:, None, :, None] * b[..., None, :, None, :]).reshape(b.shape[:-2] + shape)
    return out


def check_states(m: np.ndarray) -> None:
    """Raise unless every state of a stack (..., d, d), or one state, is finite,
    Hermitian within HERMITICITY_TOL and of unit trace within TRACE_TOL.

    The states are checked in order: the first invalid one raises the
    message DensityMatrix gives for it alone.
    """
    if not np.isfinite(m).all():
        # the states before the first non-finite one are checked first
        first = np.isfinite(m).all(axis=(-2, -1)).ravel().argmin()
        check_states(m.reshape((-1,) + m.shape[-2:])[:first])
        raise ValueError("density matrix has non-finite entries")
    herm = abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    tr = m.trace(axis1=-2, axis2=-1)
    bad = (herm > HERMITICITY_TOL) | (abs(tr - 1.0) > TRACE_TOL)
    if bad.any():
        i = bad.ravel().argmax()
        if herm.ravel()[i] > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (residual {herm.ravel()[i]:.3e})")
        raise ValueError(f"density matrix trace {complex(tr.ravel()[i])!r} differs from 1")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix over named qubit slots.

    Hermiticity, trace and finiteness are enforced on construction by
    check_states, which also checks whole stacks of raw states in one
    pass. Positivity is checked on demand (validate_positive) because
    engine loops construct many intermediate states where the
    eigendecomposition would dominate the runtime.
    """

    matrix: np.ndarray
    slots: tuple[str, ...]

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        slots = tuple(self.slots)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "slots", slots)
        if len(set(slots)) != len(slots):
            raise ValueError(f"duplicate slot names in {slots}")
        d = 2 ** len(slots)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not fit {len(slots)} qubit slots")
        check_states(m)

    @property
    def n_qubits(self) -> int:
        return len(self.slots)

    def slot_index(self, name: str) -> int:
        try:
            return self.slots.index(name)
        except ValueError:
            raise ValueError(f"no slot {name!r} in register {self.slots}") from None

    def validate_positive(self) -> "DensityMatrix":
        w = float(eig_hermitian(self.matrix)[0][-1])
        if w < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {w:.3e}")
        return self


def as_matrix(rho) -> np.ndarray:
    """The complex array behind a DensityMatrix, or the input as a complex array."""
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def trace_front(a: np.ndarray, q: int) -> np.ndarray:
    """Trace out the first q qubits of one state or a stack (..., D, D);
    a itself when q = 0."""
    if not q:
        return a
    d = a.shape[-1] >> q
    return a.reshape(a.shape[:-2] + (2 ** q, d, 2 ** q, d)).trace(axis1=-4, axis2=-2)


def partial_trace(rho: DensityMatrix, keep: Union[str, Iterable[str]]) -> DensityMatrix:
    """Reduced state over the kept slots, in their original register order.

    The register is transposed so that the traced slots come first, each
    side in register order, and one trace_front call traces them out.
    """
    if isinstance(keep, str):
        keep = (keep,)
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must name at least one slot")
    if len(set(keep)) != len(keep):
        raise ValueError(f"repeated slot names in keep={keep}")
    n = rho.n_qubits
    positions = sorted(rho.slot_index(k) for k in keep)
    order = [q for q in range(n) if q not in positions] + positions
    t = rho.matrix.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
    reduced = trace_front(t.reshape(rho.matrix.shape), n - len(positions))
    return DensityMatrix(reduced, tuple(rho.slots[q] for q in positions))


def partial_transpose(rho: DensityMatrix, slot: str) -> np.ndarray:
    """Transpose one slot; the result is Hermitian but in general not a state."""
    q = rho.slot_index(slot)
    n = rho.n_qubits
    t = rho.matrix.reshape((2,) * (2 * n))
    t = np.swapaxes(t, q, q + n)
    return t.reshape(rho.matrix.shape)


def eig_hermitian(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, or of each of a stack
    (..., d, d), by LAPACK (numpy.linalg.eigh).

    Returns (w, v): eigenvalues sorted descending, eigenvectors as the
    columns of the unitary v, with h = v @ diag(w) @ v^dagger.
    """
    a = np.asarray(h, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    herm = np.abs(a - dagger(a)).max()
    if herm > 1e-10:
        raise ValueError(f"matrix not Hermitian (residual {herm:.3e})")
    w, v = np.linalg.eigh((a + dagger(a)) / 2.0)
    return w[..., ::-1], v[..., ::-1]


def von_neumann_entropy(rho) -> float:
    """Entropy in bits; eigenvalues below the round-off floor contribute zero."""
    w, _ = eig_hermitian(as_matrix(rho))
    w = w[w > ENTROPY_EIG_FLOOR]
    # subtracting from 0.0 gives a pure state 0.0, not -0.0, in printed output
    return float(0.0 - np.sum(w * np.log2(w)))


def trace_norm_distance(a, b) -> float:
    """Half the sum of absolute eigenvalues of (a - b)."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    w, _ = eig_hermitian(ma - mb)
    return float(0.5 * np.abs(w).sum())
