"""Correlation measures on two-qubit compound states.

classical_correlation maximizes the information a projective measurement
on one qubit yields about the other. The maximization runs over the Bloch
sphere of measurement directions: a coarse deterministic grid picks
starting points, a simplex refinement polishes the best few. Everything
downstream (discord, the report classification) builds on that optimum.
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
        st, ct = np.sin(self.theta), np.cos(self.theta)
        return np.array([st * np.cos(self.psi), st * np.sin(self.psi), ct])

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny, nz = self.direction()
        p0 = 0.5 * np.array([[1 + nz, nx - 1j * ny], [nx + 1j * ny, 1 - nz]], dtype=complex)
        return p0, np.eye(2, dtype=complex) - p0


def _measured_first(rho: DensityMatrix, measured: str) -> np.ndarray:
    if rho.n_qubits != 2:
        raise ValueError("correlation measures act on two-qubit states")
    q = rho.slot_index(measured)
    m = rho.matrix
    if q == 0:
        return m
    return m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)


def _pauli_blocks(m: np.ndarray):
    # unnormalized conditional blocks of the unmeasured qubit
    b00, b01 = m[0:2, 0:2], m[0:2, 2:4]
    b10, b11 = m[2:4, 0:2], m[2:4, 2:4]
    f_i = b00 + b11
    f = np.stack([b01 + b10, 1j * (b01 - b10), b00 - b11])
    return f_i, f


def _entropy2_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and entropies of a batch of unnormalized 2x2 states."""
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    det = (mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]).real
    disc = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
    p = np.clip(tr, _EIG_FLOOR, None)
    lam1 = np.clip((tr + disc) / (2.0 * p), _EIG_FLOOR, 1.0)
    lam2 = np.clip((tr - disc) / (2.0 * p), _EIG_FLOOR, 1.0)
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
    st = np.sin(tt)
    dirs = np.stack([st * np.cos(aa), st * np.sin(aa), np.cos(tt)], axis=1)
    return tt, aa, dirs


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
    index wins ties) and the three best grid points seed the simplex
    refinement.
    """
    m = _measured_first(rho, measured)
    f_i, f = _pauli_blocks(m)
    _, h_other = _entropy2_batch(f_i[None])
    h_other = float(h_other[0])

    tt, aa, dirs = _direction_grid()
    cond = _conditional_entropy(f_i, f, dirs)
    order = np.argsort(cond, kind="stable")

    def objective(x):
        st, ct = np.sin(x[0]), np.cos(x[0])
        d = np.array([[st * np.cos(x[1]), st * np.sin(x[1]), ct]])
        return float(_conditional_entropy(f_i, f, d)[0])

    best_val = float(cond[order[0]])
    best_x = (float(tt[order[0]]), float(aa[order[0]]))
    for idx in order[:3]:
        res = minimize(
            objective,
            x0=np.array([tt[idx], aa[idx]]),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = (float(res.x[0]), float(res.x[1]))
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
