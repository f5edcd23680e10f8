"""Quantum channels: Kraus sets, superoperators, Choi matrices, process
tomography and stepwise divisibility checks.

A superoperator is a plain complex (d^2, d^2) array, and a trajectory of
them a (t, d^2, d^2) stack. They use the column-stacking convention:
vec(|i><j|) is the unit vector at index j*d + i, so
vec(M rho M^dagger) = (conj(M) kron M) vec(rho). Choi matrices are
unnormalized (trace d for a trace-preserving map) with the reference copy
on the most significant index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gates import UnitaryGate
from .linalg import DensityMatrix, PureState, as_matrix, dagger, eig_hermitian

COMPLETENESS_TOL = 1e-12
CHOI_HERMITIAN_TOL = 1e-8
CP_TOL_DEFAULT = 1e-9
SINGULAR_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators of a channel as one (L, d, d) array; operator l
    belongs to readout outcome l. adjoints holds their conjugate
    transposes, formed once."""

    operators: np.ndarray
    adjoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = [np.asarray(m, dtype=complex) for m in self.operators]
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        d = ops[0].shape[0]
        for m in ops:
            if m.shape != (d, d):
                raise ValueError("all Kraus operators must share one square shape")
        ops = np.stack(ops)
        adjs = np.ascontiguousarray(dagger(ops))
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "adjoints", adjs)
        dev = np.abs((adjs @ ops).sum(0) - np.eye(d)).max()
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated (residual {dev:.3e})")


def kraus_from_collision(u: UnitaryGate, molecule: PureState) -> KrausSet:
    """Kraus operators of one collision followed by a computational readout
    of the molecule.

    The molecule occupies the FIRST (most significant) slot of the unitary;
    operator number l is <l| u |molecule>, acting on the remaining slots.
    """
    matrix = u.matrix
    d_mol = molecule.dim
    total = matrix.shape[0]
    if total % d_mol != 0:
        raise ValueError("unitary dimension does not factor over the molecule slot")
    d_rest = total // d_mol
    blocks = matrix.reshape(d_mol, d_rest, d_mol, d_rest)
    ops = [np.einsum("rbc,b->rc", blocks[l], molecule.amplitudes) for l in range(d_mol)]
    return KrausSet(tuple(ops))


def apply_kraus(kraus: KrausSet, rho):
    """Non-selective application to one state or a stack (..., d, d);
    preserves the input type."""
    m = as_matrix(rho)
    # one product over the operator axis; the sum starts from 0, as
    # zeros + sum of terms did, so it gives the same signed zeros
    out = (kraus.operators @ m[..., None, :, :] @ kraus.adjoints).sum(-3, initial=0)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out, rho.slots)
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacked vector of one matrix, or of each of a stack (..., d, d)."""
    m = np.asarray(m, dtype=complex)
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (-1,))


def choi(s: np.ndarray) -> np.ndarray:
    """The Choi matrix of one superoperator, or of each of a stack
    (..., d^2, d^2): block (i, j) is the map applied to |i><j|."""
    s = np.asarray(s, dtype=complex)
    d = math.isqrt(s.shape[-1])
    # column stacking: S[b*d + a, j*d + i] is entry (a, b) of map(|i><j|)
    return s.reshape(s.shape[:-2] + (d, d, d, d)).swapaxes(-4, -1).reshape(s.shape)


def tomography_probes(dim: int) -> list[np.ndarray]:
    """Physical probe states of map_tomography, in the order map_from_probes reads them.

    The basis projectors come first, then for every index pair i < j the
    +x and +y style superpositions of |i> and |j>.
    """
    def proj(v):
        return np.outer(v, v.conj()) / np.vdot(v, v).real

    eye = np.eye(dim, dtype=complex)
    probes = [proj(eye[i]) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            probes += [proj(eye[i] + eye[j]), proj(eye[i] + 1j * eye[j])]
    return probes


def map_from_probes(outputs, dim: int) -> np.ndarray:
    """The linear map whose outputs on tomography_probes(dim) are `outputs`.

    outputs is (P, ..., dim, dim), P = dim^2 probe outputs in the order of
    tomography_probes; the result is one (..., dim^2, dim^2) map per entry
    of the stack. The action on |i><j| follows by linearity from the probe
    outputs, and that on |j><i| as its adjoint, so the map must preserve
    Hermiticity.
    """
    out = np.asarray(outputs, dtype=complex)
    i, j = np.triu_indices(dim, 1)
    plus, circ = out[dim::2], out[dim + 1::2]
    cross = plus + 1j * circ - (1 + 1j) / 2.0 * (out[i] + out[j])
    diag = np.arange(dim) * (dim + 1)
    s = np.empty(out.shape[1:-2] + (dim * dim, dim * dim), dtype=complex)
    # vec gives (probe, ..., dim^2); each probe fills one column
    s[..., diag] = np.moveaxis(vec(out[:dim]), 0, -1)
    s[..., j * dim + i] = np.moveaxis(vec(cross), 0, -1)
    s[..., i * dim + j] = np.moveaxis(vec(dagger(cross)), 0, -1)
    return s


def map_tomography(evolve: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Reconstruct a linear map from its action on physical probe states.

    evolve() is only ever handed the genuine density matrices of
    tomography_probes; map_from_probes rebuilds the map from the outputs.
    """
    return map_from_probes([evolve(p) for p in tomography_probes(dim)], dim)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values (descending) of one matrix or of each of a stack,
    taken by SVD so small ones stay resolved."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)


@dataclass(frozen=True)
class DivisibilityStep:
    """Outcome of one intermediate-map CP check.

    exists is True/False when the previous map is invertible, None when it
    is too singular for the check to decide anything: a singular value
    below the cutoff, or an intermediate map whose Choi matrix round-off
    has pushed off Hermitian by more than CHOI_HERMITIAN_TOL.
    """

    exists: Optional[bool]
    intermediate: Optional[np.ndarray]
    min_choi_eig: Optional[float]
    smallest_singular: float


def divisibility_scan(maps, *, cp_tol: float = CP_TOL_DEFAULT) -> list[DivisibilityStep]:
    """Stepwise CP checks for a whole trajectory of accumulated maps.

    maps is a (t, d^2, d^2) stack, or a sequence of (d^2, d^2) maps;
    maps[t] is the evolution up to step t+1. The first entry is checked
    against the identity, later ones against their predecessor. Each step
    solves L m_prev = m_t for the intermediate L and checks its Choi
    spectrum. When m_prev has a singular value below SINGULAR_CUTOFF, or
    the solve's round-off (which grows like eps / sigma_min) leaves the
    Choi matrix of L far from Hermitian, the step is reported as
    indeterminate rather than guessed. All steps run as one stack: one
    SVD, one solve, one Choi reshuffle and one eigendecomposition, each
    batched over the steps. cp_tol must be finite and non-negative.
    """
    if not (np.isfinite(cp_tol) and cp_tol >= 0):
        raise ValueError(f"cp_tol must be finite and non-negative, got {cp_tol!r}")
    cur = np.asarray(maps, dtype=complex)
    if cur.shape[:1] == (0,):
        return []
    if cur.ndim != 3 or cur.shape[1] != cur.shape[2]:
        raise ValueError(f"expected a (t, d^2, d^2) stack of superoperators, got shape {cur.shape}")
    if math.isqrt(cur.shape[1]) ** 2 != cur.shape[1]:
        raise ValueError(f"superoperator side {cur.shape[1]} is not a perfect square")
    eye = np.eye(cur.shape[1], dtype=complex)
    prev = np.concatenate([eye[None], cur[:-1]])
    smallest = singular_values(prev)[:, -1]
    invertible = smallest >= SINGULAR_CUTOFF
    # a singular predecessor is swapped for the identity so that the one
    # batched solve cannot fail on it; its step is reported undecided
    prev = np.where(invertible[:, None, None], prev, eye)
    inter = np.linalg.solve(prev.swapaxes(-1, -2), cur.swapaxes(-1, -2)).swapaxes(-1, -2)
    c = choi(inter)
    decided = invertible & (np.abs(c - dagger(c)).max((-2, -1)) <= CHOI_HERMITIAN_TOL)
    # symmetrised twice, here and again in eig_hermitian, as the per-step
    # oracle in tests/helpers.py does: it pins this scan bit for bit; an
    # undecided step's Choi matrix is swapped for the identity, so that the
    # eigensolver only sees the matrices a per-step check would hand it
    h = np.where(decided[:, None, None], (c + dagger(c)) / 2.0, eye)
    w = eig_hermitian(h)[0][:, -1].tolist()
    return [DivisibilityStep(mn >= -cp_tol, m, mn, sv) if ok else DivisibilityStep(None, None, None, sv)
            for ok, m, mn, sv in zip(decided, inter, w, smallest.tolist())]
