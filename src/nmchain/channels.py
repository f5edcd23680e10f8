"""Quantum channels: Kraus sets, superoperator matrices, Choi tests,
process tomography and one-step divisibility checks.

Superoperators use the column-stacking convention: vec(|i><j|) is the unit
vector at index j*d + i, so vec(M rho M^dagger) = (conj(M) kron M) vec(rho).
Choi matrices are unnormalized (trace d for a trace-preserving map) with
the reference copy on the most significant index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import DensityMatrix, PureState, as_matrix, dagger, eig_hermitian

COMPLETENESS_TOL = 1e-12
CHOI_HERMITIAN_TOL = 1e-8
CP_TOL_DEFAULT = 1e-9
SINGULAR_CUTOFF = 1e-10


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators of a channel; operator l belongs to readout outcome l.
    adjoints holds their conjugate transposes, formed once."""

    operators: tuple[np.ndarray, ...]
    adjoints: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(np.asarray(m, dtype=complex)) for m in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("KrausSet needs at least one operator")
        d = ops[0].shape[0]
        for m in ops:
            if m.shape != (d, d):
                raise ValueError("all Kraus operators must share one square shape")
        object.__setattr__(self, "adjoints", tuple(dagger(m) for m in ops))
        total = sum(a @ m for a, m in zip(self.adjoints, ops))
        dev = np.abs(total - np.eye(d)).max()
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated (residual {dev:.3e})")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def kraus_from_collision(u, molecule: PureState) -> KrausSet:
    """Kraus operators of one collision followed by a computational readout
    of the molecule.

    The molecule occupies the FIRST (most significant) slot of the unitary;
    operator number l is <l| u |molecule>, acting on the remaining slots.
    """
    matrix = u.matrix if hasattr(u, "matrix") else np.asarray(u, dtype=complex)
    d_mol = molecule.dim
    total = matrix.shape[0]
    if total % d_mol != 0:
        raise ValueError("unitary dimension does not factor over the molecule slot")
    d_rest = total // d_mol
    blocks = matrix.reshape(d_mol, d_rest, d_mol, d_rest)
    ops = [np.einsum("rbc,b->rc", blocks[l], molecule.amplitudes) for l in range(d_mol)]
    return KrausSet(tuple(ops))


def apply_kraus(kraus: KrausSet, rho):
    """Non-selective application; preserves the input type."""
    m = as_matrix(rho)
    out = np.zeros_like(m)
    for op, adj in zip(kraus.operators, kraus.adjoints):
        out += op @ m @ adj
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out, rho.slots)
    return out


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Superoperator as a d^2 x d^2 matrix in column-stacking convention."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"superoperator must be square, got {m.shape}")
        d = int(round(np.sqrt(m.shape[0])))
        if d * d != m.shape[0]:
            raise ValueError(f"superoperator side {m.shape[0]} is not a perfect square")

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.shape[0])))
    return v.reshape((d, d), order="F")


def identity_map(dim: int) -> LinearMap:
    return LinearMap(np.eye(dim * dim, dtype=complex))


def map_from_kraus(kraus: KrausSet) -> LinearMap:
    d = kraus.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    for op in kraus.operators:
        s += np.kron(op.conj(), op)
    return LinearMap(s)


def apply_map(m: LinearMap, rho):
    out = unvec(m.matrix @ vec(as_matrix(rho)))
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out, rho.slots)
    return out


def compose(outer: LinearMap, inner: LinearMap) -> LinearMap:
    """Map applying inner first, then outer."""
    if outer.dim != inner.dim:
        raise ValueError("cannot compose maps of different dimension")
    return LinearMap(outer.matrix @ inner.matrix)


def choi(m: LinearMap) -> np.ndarray:
    """The (d^2, d^2) Choi matrix: block (i, j) is the map applied to |i><j|."""
    d = m.dim
    # column stacking: S[b*d + a, j*d + i] is entry (a, b) of map(|i><j|)
    return m.matrix.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def min_choi_eigenvalue(c: np.ndarray) -> float:
    m = np.asarray(c, dtype=complex)
    skew = np.abs(m - dagger(m)).max()
    if skew > CHOI_HERMITIAN_TOL:
        raise ValueError(f"Choi matrix is far from Hermitian (residual {skew:.3e})")
    w, _ = eig_hermitian((m + dagger(m)) / 2.0)
    return float(w[-1])


def is_cp(c: np.ndarray, tol: float = CP_TOL_DEFAULT) -> bool:
    return min_choi_eigenvalue(c) >= -tol


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


def map_from_probes(outputs: Sequence[np.ndarray], dim: int) -> LinearMap:
    """The linear map whose outputs on tomography_probes(dim) are `outputs`.

    The action on |i><j| follows by linearity from the probe outputs, and
    that on |j><i| as its adjoint, so the map must preserve Hermiticity.
    """
    outputs = [np.asarray(o, dtype=complex) for o in outputs]
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        s[:, i * dim + i] = vec(outputs[i])
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            plus, circ = outputs[k], outputs[k + 1]
            k += 2
            cross = plus + 1j * circ - (1 + 1j) / 2.0 * (outputs[i] + outputs[j])
            s[:, j * dim + i] = vec(cross)
            s[:, i * dim + j] = vec(dagger(cross))
    return LinearMap(s)


def map_tomography(evolve: Callable[[np.ndarray], np.ndarray], dim: int) -> LinearMap:
    """Reconstruct a linear map from its action on physical probe states.

    evolve() is only ever handed the genuine density matrices of
    tomography_probes; map_from_probes rebuilds the map from the outputs.
    """
    return map_from_probes([evolve(p) for p in tomography_probes(dim)], dim)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values (descending), taken by SVD so small ones stay resolved."""
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
    intermediate: Optional[LinearMap]
    min_choi_eig: Optional[float]
    smallest_singular: float


def divisibility_step(
    m_t: LinearMap,
    m_prev: LinearMap,
    *,
    cp_tol: float = CP_TOL_DEFAULT,
) -> DivisibilityStep:
    """CP test of the map connecting two accumulated evolutions.

    Solves L m_prev = m_t for the intermediate L and checks its Choi
    spectrum. When m_prev has a singular value below SINGULAR_CUTOFF, or
    the solve's round-off (which grows like eps / sigma_min) leaves the
    Choi matrix of L far from Hermitian, the step is reported as
    indeterminate rather than guessed. cp_tol must be finite and
    non-negative.
    """
    if not (np.isfinite(cp_tol) and cp_tol >= 0):
        raise ValueError(f"cp_tol must be finite and non-negative, got {cp_tol!r}")
    if m_t.dim != m_prev.dim:
        raise ValueError("maps act on different dimensions")
    sv = singular_values(m_prev.matrix)
    smallest = float(sv[-1])
    if smallest < SINGULAR_CUTOFF:
        return DivisibilityStep(None, None, None, smallest)
    inter = LinearMap(np.linalg.solve(m_prev.matrix.T, m_t.matrix.T).T)
    c = choi(inter)
    if np.abs(c - dagger(c)).max() > CHOI_HERMITIAN_TOL:
        return DivisibilityStep(None, None, None, smallest)
    mn = min_choi_eigenvalue(c)
    return DivisibilityStep(mn >= -cp_tol, inter, mn, smallest)


def divisibility_scan(
    maps: Sequence[LinearMap],
    *,
    cp_tol: float = CP_TOL_DEFAULT,
) -> list[DivisibilityStep]:
    """Stepwise CP checks for a whole trajectory of accumulated maps.

    maps[t] is the evolution up to step t+1; the first entry is checked
    against the identity, later ones against their predecessor.
    """
    if not maps:
        return []
    out = [divisibility_step(maps[0], identity_map(maps[0].dim), cp_tol=cp_tol)]
    for prev, cur in zip(maps, maps[1:]):
        out.append(divisibility_step(cur, prev, cp_tol=cp_tol))
    return out
