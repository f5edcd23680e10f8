"""Correlation measures on two-qubit compound states.

classical_correlation maximizes the information a projective measurement
on one qubit yields about the other. The maximization runs over the Bloch
sphere of measurement directions: a coarse deterministic grid picks
starting points, and BFGS on the closed-form gradient polishes the best
few. Everything downstream (discord, the report classification) builds
on that optimum.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import minimize

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


def _measured_first(rho: DensityMatrix, measured: str) -> np.ndarray:
    if rho.n_qubits != 2:
        raise ValueError("correlation measures act on two-qubit states")
    q = rho.slot_index(measured)
    m = rho.matrix
    if q == 0:
        return m
    return m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _pauli_sums(x00, x01, x10, x11) -> np.ndarray:
    """tr_1((sigma_j (x) 1) X), j = 0..3 with sigma_0 = 1, for X = [[x00, x01], [x10, x11]]."""
    return np.stack([x00 + x11, x01 + x10, 1j * (x01 - x10), x00 - x11])


def _eigenvalues(tr, gap):
    """Normalized, floor-clipped eigenvalues of 2x2 states with trace tr and eigenvalue gap."""
    p = np.clip(tr, _EIG_FLOOR, None)
    lam1 = np.clip((tr + gap) / (2.0 * p), _EIG_FLOOR, 1.0)
    lam2 = np.clip((tr - gap) / (2.0 * p), _EIG_FLOOR, 1.0)
    return lam1, lam2


def _entropy2_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and entropies of a batch of unnormalized 2x2 states."""
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    det = (mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]).real
    lam1, lam2 = _eigenvalues(tr, np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None)))
    ent = -(lam1 * np.log2(lam1) + lam2 * np.log2(lam2))
    return tr, ent


def _conditional_entropy(f_i: np.ndarray, f: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Average post-measurement entropy for each Bloch direction (G, 3)."""
    proj = np.einsum("gk,kab->gab", directions, f)
    up = (f_i[None, :, :] + proj) / 2.0
    dn = (f_i[None, :, :] - proj) / 2.0
    p_up, h_up = _entropy2_batch(up)
    p_dn, h_dn = _entropy2_batch(dn)
    out = np.where(p_up > 1e-14, p_up * h_up, 0.0) + np.where(p_dn > 1e-14, p_dn * h_dn, 0.0)
    return out


def _direction_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    thetas = (np.arange(GRID_THETA) + 0.5) * np.pi / GRID_THETA
    alphas = np.arange(GRID_ALPHA) * 2.0 * np.pi / GRID_ALPHA
    tt, aa = np.meshgrid(thetas, alphas, indexing="ij")
    tt, aa = tt.reshape(-1), aa.reshape(-1)
    return tt, aa, _direction(tt, aa)


_BRANCH = np.array([1.0, -1.0])


def _polish_objective(x: np.ndarray, corr: np.ndarray) -> tuple[float, np.ndarray]:
    """Conditional entropy along the direction x = (theta, psi), with its gradient.

    corr[j, k] = tr(rho sigma_j (x) sigma_k), measured qubit first. Along n
    the outcome blocks (f_i +- n.F)/2 have trace w_0 and Bloch vector w_1:3,
    w = (corr[0] +- n @ corr[1:]) / 2, hence eigenvalues (w_0 +- gap)/2 with
    gap = |w_1:3|. A block's entropy term w_0 H(l1, l2), in bits, has
    derivative -(log2 l1 + log2 l2)/2 in w_0 and -(log2 l1 - log2 l2)/2 in gap.
    """
    n, n_theta = _direction(np.array([x[0], x[0] + np.pi / 2]), x[1])
    w = (corr[0] + _BRANCH[:, None] * (n @ corr[1:])) / 2.0
    tr, bloch = w[:, 0], w[:, 1:]
    gap = np.sqrt(np.sum(bloch * bloch, axis=1))
    lam1, lam2 = _eigenvalues(tr, gap)
    l1, l2 = np.log2(lam1), np.log2(lam2)
    live = tr > 1e-14
    value = np.sum(np.where(live, -tr * (lam1 * l1 + lam2 * l2), 0.0))
    d_tr = np.where(live, -(l1 + l2) / 2.0, 0.0)
    d_gap = np.where(live, -(l1 - l2) / 2.0, 0.0) / np.maximum(gap, _EIG_FLOOR)
    d_n = corr[1:] @ (_BRANCH @ np.column_stack([d_tr, d_gap[:, None] * bloch])) / 2.0
    return float(value), np.array([n_theta @ d_n, n[0] * d_n[1] - n[1] * d_n[0]])


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

    Deterministic: the coarse grid is scanned in a fixed order (first best
    index wins ties) and the three best grid points seed BFGS polishes on
    the analytic gradient of the conditional entropy. Each polished point
    is scored with the grid's formula and replaces the grid's best only if
    it is strictly lower, so J never falls below the grid's estimate.
    """
    m = _measured_first(rho, measured)
    # the unmeasured qubit's state f_i and the unnormalized conditional blocks f
    blocks = _pauli_sums(m[0:2, 0:2], m[0:2, 2:4], m[2:4, 0:2], m[2:4, 2:4])
    f_i, f = blocks[0], blocks[1:]
    _, h_other = _entropy2_batch(f_i[None])
    h_other = float(h_other[0])

    tt, aa, dirs = _direction_grid()
    cond = _conditional_entropy(f_i, f, dirs)
    order = np.argsort(cond, kind="stable")

    corr = _pauli_sums(blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]).real.T
    polished = np.array([
        minimize(_polish_objective, np.array([tt[idx], aa[idx]]), args=(corr,),
                 jac=True, method="BFGS", options={"gtol": 1e-7}).x
        for idx in order[:3]
    ])
    # the gradient only steers: J comes from the grid's own formula
    polished_vals = _conditional_entropy(f_i, f, _direction(polished[:, 0], polished[:, 1]))
    best_val = float(cond[order[0]])
    best_x = (float(tt[order[0]]), float(aa[order[0]]))
    for x, val in zip(polished, polished_vals):
        if val < best_val:
            best_val, best_x = float(val), (float(x[0]), float(x[1]))
    j = max(h_other - best_val, 0.0)
    return j, ProjectivePair(*best_x)


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

    def clamped(self) -> "NMReport":
        """Round tiny negative measures (within 1e-9) up to zero for reporting."""
        def fix(x):
            if x is None:
                return None
            if x < -REPORT_CLAMP:
                raise ValueError(f"measure {x!r} is negative beyond round-off")
            return max(x, 0.0)

        return replace(
            self,
            mutual_info=fix(self.mutual_info),
            classical_J=fix(self.classical_J),
            discord=fix(self.discord),
        )


def nm_report(model: ChainModel, rho0) -> NMReport:
    """Count the memory qubits and, for the built-in two-collision models,
    measure the stationary system-memory correlations.

    Classification: "quantum non-Markovian" when the stationary discord
    clears DISCORD_THRESHOLD, "classical non-Markovian" when only the memory
    count does, "Markovian" otherwise. Custom schedules get their count and
    an "undetermined" tag since no stationary compound is singled out.
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
    d = info - j
    if d < -REPORT_CLAMP or j < -REPORT_CLAMP:
        raise ValueError("correlation measures violate positivity beyond round-off")
    if d > DISCORD_THRESHOLD:
        tag = "quantum non-Markovian"
    elif count > 0:
        tag = "classical non-Markovian"
    else:
        tag = "Markovian"
    return NMReport(count, info, j, d, basis, tag)
