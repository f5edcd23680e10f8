"""Correlation measures on two-qubit compound states.

classical_correlation maximizes the information a projective measurement
on one qubit yields about the other. It reads everything off the real
correlation matrix corr[j, k] = tr(rho sigma_j (x) sigma_k), sigma_0 = 1,
the measured qubit's index first (Luo, PRA 77, 042303 (2008)). Measuring
along the Bloch direction n leaves two outcome blocks, each a qubit
state of trace w_0 and Bloch vector w_1:3 with w = (corr[0] +- n @ corr[1:]) / 2,
and one closed-form entropy of such blocks serves the whole maximization:
half a coarse deterministic grid of directions (n and -n are one
measurement) picks the best, and one BFGS polish on the same formula's
gradient refines it. Everything downstream builds on that optimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .chains import (
    CUSTOM,
    MARKOV_XOR,
    ChainModel,
    overlap_schedule,
    satellite_count,
    stationary_state,
)
from .linalg import DensityMatrix, partial_trace, von_neumann_entropy

GRID_THETA = 64
GRID_ALPHA = 128
DISCORD_THRESHOLD = 1e-6
REPORT_CLAMP = 1e-9
_REPORT_HORIZON = 6

_EIG_FLOOR = 1e-18


@dataclass(frozen=True)
class ProjectivePair:
    """Projective qubit measurement along the Bloch direction (theta, psi)."""

    theta: float
    psi: float

    def direction(self) -> np.ndarray:
        return _direction(self.theta, self.psi)

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny, nz = self.direction()
        p0 = 0.5 * np.array([[1 + nz, nx - 1j * ny], [nx + 1j * ny, 1 - nz]], dtype=complex)
        return p0, np.eye(2, dtype=complex) - p0


def _direction(theta, psi) -> np.ndarray:
    """Unit vectors (sin theta cos psi, sin theta sin psi, cos theta) on the last axis."""
    st = np.sin(theta)
    return np.stack([st * np.cos(psi), st * np.sin(psi), np.cos(theta)], axis=-1)


def _chart(theta: float, psi: float) -> ProjectivePair:
    """The measurement along (theta, psi), named by the one of n and -n with
    n_z > 0: theta in [0, pi/2] and psi in [0, 2 pi), and psi in [0, pi) on
    the equator theta = pi/2. n and -n are the same measurement with its
    outcomes swapped, and the conditional entropy is even in n."""
    theta = math.remainder(theta, 2.0 * math.pi)
    if theta < 0.0:
        theta, psi = -theta, psi + math.pi
    if theta > math.pi / 2:
        theta, psi = math.pi - theta, psi + math.pi
    psi %= 2.0 * math.pi
    if psi == 2.0 * math.pi:
        psi = 0.0  # a tiny negative psi rounds up to 2 pi itself
    if theta == math.pi / 2 and psi >= math.pi:
        psi -= math.pi
    return ProjectivePair(theta, psi)


# the scanned Bloch directions: the theta < pi/2 half of the GRID_THETA x
# GRID_ALPHA grid, theta-major. The other half mirrors its theta rows about
# pi/2 and shifts its psi rows by pi, so it holds exactly their antipodes -n.
_HALF_GRID = _direction(*np.meshgrid(
    (np.arange(GRID_THETA // 2) + 0.5) * np.pi / GRID_THETA,
    np.arange(GRID_ALPHA) * 2.0 * np.pi / GRID_ALPHA,
    indexing="ij",
)).reshape(-1, 3)

_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# sigma_j (x) sigma_k as _PAULI_PAIRS[j, k]
_PAULI_PAIRS = np.einsum("jab,kcd->jkacbd", _PAULIS, _PAULIS).reshape(4, 4, 4, 4)
_BRANCH = np.array([1.0, -1.0])


def _correlations(rho: DensityMatrix, measured: str) -> np.ndarray:
    """corr[j, k] = tr(rho sigma_j (x) sigma_k), the measured qubit's index first."""
    if rho.n_qubits != 2:
        raise ValueError("correlation measures act on two-qubit states")
    corr = np.einsum("jkba,ab->jk", _PAULI_PAIRS, rho.matrix).real
    return corr if rho.slot_index(measured) == 0 else corr.T


def _block_entropy(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w_0 H, in bits, of qubit blocks with trace w_0 = w[..., 0] and Bloch
    vector w[..., 1:], and its slopes: the derivative in w_0, and the factor
    that turns w_1:3 into the gradient in w_1:3.

    The eigenvalues (w_0 +- gap)/2, gap = |w_1:3|, are normalized and
    clipped at _EIG_FLOOR, and blocks of trace below 1e-14 count zero. With
    l1, l2 the log2 of the normalized eigenvalues, w_0 H has derivative
    -(l1 + l2)/2 in w_0 and -(l1 - l2)/2 in the gap.
    """
    tr, bloch = w[..., 0], w[..., 1:]
    gap = np.sqrt(np.einsum("...k,...k->...", bloch, bloch))
    p = np.clip(tr, _EIG_FLOOR, None)
    lam1 = np.clip((tr + gap) / (2.0 * p), _EIG_FLOOR, 1.0)
    lam2 = np.clip((tr - gap) / (2.0 * p), _EIG_FLOOR, 1.0)
    l1, l2 = np.log2(lam1), np.log2(lam2)
    live = tr > 1e-14
    value = np.where(live, -tr * (lam1 * l1 + lam2 * l2), 0.0)
    d_tr = np.where(live, -(l1 + l2) / 2.0, 0.0)
    d_gap = np.where(live, -(l1 - l2) / 2.0, 0.0)
    return value, d_tr, d_gap / np.maximum(gap, _EIG_FLOOR)


def _polish_objective(x: np.ndarray, frame: np.ndarray, corr: np.ndarray) -> tuple[float, np.ndarray]:
    """Conditional entropy along n = normalize(frame[0] + x @ frame[1:]), with its gradient in x."""
    m = frame[0] + x @ frame[1:]
    norm = math.sqrt(m @ m)
    n = m / norm
    w = (corr[0] + _BRANCH[:, None] * (n @ corr[1:])) / 2.0
    value, d_tr, d_bloch = _block_entropy(w)
    d_n = corr[1:] @ (_BRANCH @ np.column_stack([d_tr, d_bloch[:, None] * w[:, 1:]])) / 2.0
    return float(value.sum()), frame[1:] @ (d_n - (d_n @ n) * n) / norm


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call, so that the
    package loads without scipy until a correlation is polished."""
    from scipy import optimize

    return optimize.minimize(fun, x0, **kwargs)


def mutual_information(rho: DensityMatrix, part: Union[str, Sequence[str]] = "mem") -> float:
    """S(part) + S(rest) - S(whole), in bits."""
    if isinstance(part, str):
        part = (part,)
    part = tuple(part)
    rest = tuple(s for s in rho.slots if s not in part)
    if not part or not rest or len(part) + len(rest) != rho.n_qubits:
        raise ValueError(f"part {part} must split the register {rho.slots}")
    return (
        von_neumann_entropy(partial_trace(rho, part))
        + von_neumann_entropy(partial_trace(rho, rest))
        - von_neumann_entropy(rho)
    )


def classical_correlation(rho: DensityMatrix, measured: str = "mem") -> tuple[float, ProjectivePair]:
    """Best classical information about the unmeasured qubit, with the argmax basis.

    Deterministic: the theta < pi/2 half grid, which holds one of n and -n
    for every direction of the full grid, is scanned in a fixed order (first
    best index wins ties), and one BFGS polish of the same conditional
    entropy on its analytic gradient runs from the best grid direction n0 in
    the tangent chart normalize(n0 + u e_theta + v e_psi). The polished point
    replaces the grid's best only if it is strictly lower, so J never falls
    below the grid's estimate. The basis is named as in _chart: theta in
    [0, pi/2] and psi in [0, 2 pi), with psi in [0, pi) at theta = pi/2.
    """
    corr = _correlations(rho, measured)
    h_other = float(_block_entropy(corr[0])[0])
    blocks = (corr[0] + _BRANCH[:, None, None] * (_HALF_GRID @ corr[1:])) / 2.0
    cond = _block_entropy(blocks)[0].sum(axis=0)
    best_val, n = float(cond.min()), _HALF_GRID[np.argmin(cond)]
    s = math.hypot(n[0], n[1])  # > 0: no grid point is a pole
    frame = np.array([n, [n[2] * n[0] / s, n[2] * n[1] / s, -s], [-n[1] / s, n[0] / s, 0.0]])
    res = minimize(_polish_objective, np.zeros(2), args=(frame, corr),
                   jac=True, method="BFGS", options={"gtol": 1e-7})
    if res.fun < best_val:
        best_val, n = float(res.fun), frame[0] + res.x @ frame[1:]
    # atan2, not acos: acos loses ~1e-8 rad of theta near the pole
    theta, psi = math.atan2(math.hypot(n[0], n[1]), n[2]), math.atan2(n[1], n[0])
    return max(h_other - best_val, 0.0), _chart(theta, psi)


def discord(rho: DensityMatrix, measured: str = "mem") -> float:
    """Mutual information minus the best classical correlation (unclamped)."""
    j, _ = classical_correlation(rho, measured)
    return mutual_information(rho, (measured,)) - j


@dataclass(frozen=True)
class NMReport:
    """Memory census and correlation measures of a chain's stationary regime."""

    count_qubits: int
    mutual_info: Optional[float]
    classical_J: Optional[float]
    discord: Optional[float]
    argmax_basis: Optional[ProjectivePair]
    classification: str


def nm_report(model: ChainModel, rho0) -> NMReport:
    """Count the memory qubits and, for the built-in two-collision models,
    measure the stationary system-memory correlations.

    Classification: "quantum non-Markovian" when the stationary discord
    clears DISCORD_THRESHOLD, "classical non-Markovian" when only the memory
    count does, "Markovian" otherwise. Custom schedules get their count and
    an "undetermined" tag since no stationary compound is singled out.
    The measures I, J and D = I - J are judged once: one below -REPORT_CLAMP
    raises, and one within that round-off of zero is reported as 0.0.
    """
    if model.kind == MARKOV_XOR:
        return NMReport(0, 0.0, 0.0, 0.0, None, "Markovian")
    if model.kind == CUSTOM:
        count = satellite_count(model.schedule)
        tag = "Markovian" if count == 0 else "undetermined"
        return NMReport(count, None, None, None, None, tag)
    count = satellite_count(overlap_schedule(_REPORT_HORIZON))
    stat = stationary_state(model, rho0)
    info = mutual_information(stat, ("mem",))
    j, basis = classical_correlation(stat, "mem")
    measures = (info, j, info - j)
    if min(measures) < -REPORT_CLAMP:
        raise ValueError("correlation measures violate positivity beyond round-off")
    info, j, d = (max(x, 0.0) for x in measures)
    if d > DISCORD_THRESHOLD:
        tag = "quantum non-Markovian"
    elif count > 0:
        tag = "classical non-Markovian"
    else:
        tag = "Markovian"
    return NMReport(count, info, j, d, basis, tag)
