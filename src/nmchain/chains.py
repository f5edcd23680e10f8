"""Collision chains.

Three built-in models share one picture: a stream of identically prepared
molecule qubits hits the system one collision at a time.

* markov-xor: every molecule collides once, so the reduced dynamics is a
  Markov chain of identical channels,
* repeated-xor: each molecule collides twice (consecutive steps), giving
  the chain a one-molecule memory; the collision is the plain xor,
* sqrt-xor: same two-collision layout, but each collision applies the
  square root of the xor so one full xor is spread over two steps.

The two-collision models admit an exact satellite picture: one extra
memory qubit that swaps with the fresh molecule each step. States on that
compound live on slots ("mem", "sys"). Arbitrary collision layouts
(custom models) run in a sliding-window engine that keeps only the
currently open molecules; the window width a schedule needs is checked
against WINDOW_QUBIT_CAP when the model is built. Each window step is one
product V rho V^dagger with the step isometry V (attach the fresh
molecules, run the step's collisions, put the molecules read out first),
compiled once per step shape by _step_isometry and kept in a bounded
cache. A built-in model is a window with one step shape: markov-xor
attaches one molecule and reads it out, and the two-collision compound is
a window whose one open molecule is the satellite. So window_collide is
the one step of every model, for the trajectory walker and for evolve's
custom models. evolve runs a built-in model without a per-step call:
every two-collision step is one fixed linear map of the compound, so the
run is filled by powers of the transfer matrix of its V's blocks;
markov-xor multiplies its coherences along the steps, bit for bit its
closed-form step, which keeps the populations exact. evolve gives every
model's rows after t = 0 exactly real diagonals.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .channels import KrausSet, kraus_from_collision, map_from_probes, tomography_probes
from .gates import UnitaryGate, apply_left, embed, molecule_state, sqrt_xor_gate, swap_gate, xor_gate
from .linalg import DensityMatrix, as_matrix, check_states, tensor

MARKOV_XOR = "markov-xor"
REPEATED_XOR = "repeated-xor"
SQRT_XOR = "sqrt-xor"
CUSTOM = "custom"
MODEL_KINDS = (MARKOV_XOR, REPEATED_XOR, SQRT_XOR, CUSTOM)

SYSTEM_SLOT = "sys"
MEMORY_SLOT = "mem"
WINDOW_QUBIT_CAP = 6

# Gate codes of schedule events: code c names GATE_NAMES[c]; 0 is the model's own gate.
GATE_NAMES = (None, "xor", "sqrt-xor")
_GATE_CODES = {name: code for code, name in enumerate(GATE_NAMES)}
_GATES = (None, xor_gate(), sqrt_xor_gate())


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _int64_array(name: str, values) -> np.ndarray:
    """values as an int64 array; a float, bool or object array is refused,
    not truncated (an empty one holds nothing to truncate)."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {a.dtype}")
    if a.dtype.kind == "u" and a.size and a.max() >= 2**63:
        raise ValueError(f"{name} must be below 2**63")
    return a.astype(np.int64)


class CollisionSchedule:
    """Collisions held as three read-only int64 arrays sorted by step:
    `event_steps`, `event_molecules` and `event_gates` (codes into
    GATE_NAMES). Within a step the listed order is execution order.

    The constructor takes the events as 1-D arrays of one length, in listed
    order; gates=None gives every event the model's own gate (code 0). It
    copies them, so the caller's arrays stay writeable and unaliased.
    """

    def __init__(self, steps, molecules, horizon: int, gates=None):
        steps, molecules = _int64_array("steps", steps), _int64_array("molecules", molecules)
        gates = np.zeros(steps.shape, np.int64) if gates is None else _int64_array("gates", gates)
        if steps.ndim != 1 or not steps.shape == molecules.shape == gates.shape:
            raise ValueError("steps, molecules and gates must be 1-D arrays of one length, got shapes "
                             f"{steps.shape}, {molecules.shape} and {gates.shape}")
        bad = (steps < 0) | (molecules < 0) | (gates < 0) | (gates >= len(GATE_NAMES))
        if bad.any():
            i = int(np.argmax(bad))
            if steps[i] < 0:
                raise ValueError(f"negative step {steps[i]}")
            if molecules[i] < 0:
                raise ValueError(f"negative molecule id {molecules[i]}")
            raise ValueError(f"unknown gate code {gates[i]}; choose from 0 to {len(GATE_NAMES) - 1}")
        if horizon < 1:
            raise ValueError(f"horizon must be positive, got {horizon}")
        # molecule-major, then step; lexsort is stable, so an event that
        # repeats an earlier (molecule, step) comes right after it
        by_mol = np.lexsort((steps, molecules))
        mol, step = molecules[by_mol], steps[by_mol]
        first, last = np.ones(len(mol), dtype=bool), np.ones(len(mol), dtype=bool)
        first[1:] = last[:-1] = mol[1:] != mol[:-1]
        repeat = np.zeros(len(mol), dtype=bool)
        repeat[1:] = ~first[1:] & (step[1:] == step[:-1])
        bad = steps >= horizon
        bad[by_mol[repeat]] = True
        if bad.any():
            # the first offending event in listed order, as an event loop would find it
            i = int(np.argmax(bad))
            if steps[i] >= horizon:
                raise ValueError(f"event at step {steps[i]} outside horizon {horizon}")
            raise ValueError(f"molecule {molecules[i]} listed twice at step {steps[i]}")
        self.horizon = horizon
        order = np.argsort(steps, kind="stable")
        self.event_steps = _readonly(steps[order])
        self.event_molecules = _readonly(molecules[order])
        self.event_gates = _readonly(gates[order])
        # molecule ids ascending, each with its first and last step
        self._ids, self._first, self._last = (_readonly(a) for a in (mol[first], step[first], step[last]))
        # the window engine looks up every step it runs; bisect on lists is
        # the cheapest search of the sorted steps. Beside each event, whether
        # it is its molecule's last: the molecules a step reads out.
        self._step_list = self.event_steps.tolist()
        closes = np.empty(len(mol), dtype=bool)
        closes[by_mol] = last
        self._closes = closes[order].tolist()
        # for the census: all first steps and all last steps, each sorted
        self._ends = (np.sort(self._first), np.sort(self._last))

    def _step_slice(self, step: int) -> slice:
        lo = bisect.bisect_left(self._step_list, step)
        return slice(lo, bisect.bisect_right(self._step_list, step, lo))

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(molecule ids ascending, first steps, last steps) as read-only arrays."""
        return self._ids, self._first, self._last

    def _span_row(self, molecule: int) -> int:
        i = int(self._ids.searchsorted(molecule))
        if i == len(self._ids) or self._ids[i] != molecule:
            raise ValueError(f"molecule {molecule} has no events")
        return i

    def first_event(self, molecule: int) -> int:
        return int(self._first[self._span_row(molecule)])

    def last_event(self, molecule: int) -> int:
        return int(self._last[self._span_row(molecule)])

    def events_at(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """(molecules, gate codes) of the step's events, in execution order, as read-only views."""
        rows = self._step_slice(step)
        return self.event_molecules[rows], self.event_gates[rows]


def schedule_from_records(records: Sequence[dict], horizon: Optional[int] = None) -> CollisionSchedule:
    """Build a schedule from parsed JSON records [{"t": int, "mol": int, "gate"?: str}]."""
    steps, molecules, gates = [], [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or "t" not in rec or "mol" not in rec:
            raise ValueError(f"record {i} must be an object with keys 't' and 'mol'")
        # beside 't' and 'mol' a record may hold only 'gate'
        if len(rec) > 2 + ("gate" in rec):
            raise ValueError(f"record {i} has unknown keys {sorted(set(rec) - {'t', 'mol', 'gate'})}")
        t, mol = rec["t"], rec["mol"]
        if not isinstance(t, int) or isinstance(t, bool) or not isinstance(mol, int) or isinstance(mol, bool):
            raise ValueError(f"record {i}: 't' and 'mol' must be integers")
        if t >= 2**63 or mol >= 2**63:
            raise ValueError(f"record {i}: 't' and 'mol' must be below 2**63")
        gate = rec.get("gate")
        if gate is not None and not isinstance(gate, str):
            raise ValueError(f"record {i}: 'gate' must be a string, got {gate!r}")
        if t < 0:
            raise ValueError(f"negative step {t}")
        if mol < 0:
            raise ValueError(f"negative molecule id {mol}")
        code = _GATE_CODES.get(gate)
        if code is None:
            raise ValueError(f"unknown gate {gate!r}; choose from {sorted(GATE_NAMES[1:])}")
        steps.append(t)
        molecules.append(mol)
        gates.append(code)
    if not steps:
        raise ValueError("schedule has no events")
    if horizon is None:
        horizon = max(steps) + 1
    return CollisionSchedule(steps, molecules, horizon, gates)


def _step_range(horizon: int) -> np.ndarray:
    """np.arange(horizon), refused when the int64 range does not hold the horizon."""
    t = np.arange(horizon)
    if horizon > 0 and len(t) != horizon:
        raise ValueError(f"horizon {horizon} does not fit an int64 step range")
    return t


def chain_schedule(horizon: int) -> CollisionSchedule:
    """Every molecule collides exactly once: molecule t at step t."""
    t = _step_range(horizon)
    return CollisionSchedule(t, t, horizon)


def single_molecule_schedule(horizon: int) -> CollisionSchedule:
    """One molecule colliding at every step."""
    t = _step_range(horizon)
    return CollisionSchedule(t, np.zeros_like(t), horizon)


def _double_collision_schedule(horizon: int, gap: int) -> CollisionSchedule:
    # Fresh molecules first within each step, then the one finishing its
    # second (or only) collision. Molecules near the start of the chain
    # collide once so every molecule's activity fits the horizon: the fresh
    # molecule t + gap of step t is kept only while it is below the horizon.
    t = _step_range(horizon)
    steps, molecules = np.repeat(t, 2), np.column_stack([t + gap, t]).ravel()
    keep = molecules < horizon
    return CollisionSchedule(steps[keep], molecules[keep], horizon)


def overlap_schedule(horizon: int) -> CollisionSchedule:
    """Each molecule collides twice on consecutive steps (periods overlap by one)."""
    return _double_collision_schedule(horizon, 1)


def advanced_overlap_schedule(horizon: int) -> CollisionSchedule:
    """Two collisions per molecule with a one-step pause between them."""
    return _double_collision_schedule(horizon, 2)


def window_width(schedule: CollisionSchedule) -> int:
    """Largest register (molecules + system) the window engine will hold.

    During step t it holds the molecules with first <= t <= last, a count
    that only grows at a first step.
    """
    first, last = schedule._ends
    held = np.searchsorted(first, first, "right") - np.searchsorted(last, first, "left")
    return 1 + int(held.max(initial=0))


def satellite_count(schedule: CollisionSchedule) -> int:
    """Largest number of molecules that straddle any single step boundary.

    A molecule straddles the boundary after step t when its first collision
    is at or before t and its last is after t. This is the number of memory
    qubits a Markov embedding of the schedule needs.
    """
    first, last = schedule._ends
    straddling = np.searchsorted(first, first, "right") - np.searchsorted(last, first, "right")
    return int(straddling.max(initial=0))


@dataclass(frozen=True, eq=False)
class ChainModel:
    """A collision model: kind, preparation angle, and (for custom) payload."""

    kind: str
    phi: float
    gate: Optional[UnitaryGate] = None
    schedule: Optional[CollisionSchedule] = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if self.kind == CUSTOM:
            if self.gate is None or self.schedule is None:
                raise ValueError("custom models need both a gate and a schedule")
            width = window_width(self.schedule)
            if width > WINDOW_QUBIT_CAP:
                raise ValueError(f"schedule needs a {width}-qubit window; the engine cap is {WINDOW_QUBIT_CAP}")
            if set(self.gate.slot_roles) != {"mol", SYSTEM_SLOT}:
                raise ValueError(f"custom gate roles must be mol and sys, got {self.gate.slot_roles}")
        elif self.gate is not None or self.schedule is not None:
            raise ValueError(f"{self.kind} takes no custom gate or schedule")
        phi = float(self.phi)
        object.__setattr__(self, "phi", phi)
        if not np.isfinite(phi):
            raise ValueError("phi must be finite")

    def collision_gate(self) -> UnitaryGate:
        if self.kind == SQRT_XOR:
            return sqrt_xor_gate()
        if self.kind == CUSTOM:
            return self.gate
        return xor_gate()


def markov_xor(phi: float) -> ChainModel:
    return ChainModel(MARKOV_XOR, phi)


def repeated_xor(phi: float) -> ChainModel:
    return ChainModel(REPEATED_XOR, phi)


def sqrt_xor(phi: float) -> ChainModel:
    return ChainModel(SQRT_XOR, phi)


def custom_chain(gate: UnitaryGate, schedule: CollisionSchedule, phi: float = 0.0) -> ChainModel:
    return ChainModel(CUSTOM, phi, gate=gate, schedule=schedule)


def system_state(rho0) -> DensityMatrix:
    """A single-qubit state (DensityMatrix or array) on the system slot."""
    if isinstance(rho0, DensityMatrix):
        if rho0.n_qubits != 1:
            raise ValueError("system state must be a single qubit")
        if rho0.slots == (SYSTEM_SLOT,):
            return rho0
        return DensityMatrix(rho0.matrix, (SYSTEM_SLOT,))
    return DensityMatrix(np.asarray(rho0, dtype=complex), (SYSTEM_SLOT,))


def _memory_array(mem0) -> np.ndarray:
    if mem0 is None:
        return np.diag([1.0, 0.0]).astype(complex)
    m = as_matrix(mem0)
    if m.shape != (2, 2):
        raise ValueError("memory state must be a single qubit")
    return m


# --- single-collision model, closed form ---------------------------------

def markov_xor_step(rho, phi: float):
    """One collision of the single-collision chain, on one state or a stack (..., 2, 2).

    Populations are untouched; the coherence shrinks by sin(2 phi).
    """
    m = as_matrix(rho)
    if m.shape[-2:] != (2, 2):
        raise ValueError("markov_xor_step acts on a single qubit")
    k = np.sin(2.0 * phi)
    out = np.array(m, order="C")
    coherences = out.reshape(m.shape[:-2] + (4,))[..., 1:3]
    # (k + 0j)(x + iy) one real product at a time, as numpy's complex scalar
    # product forms it: a complex array product may fuse a multiply-add and
    # give a zero that underflowed the other sign
    x, y = coherences.real, coherences.imag
    coherences.real, coherences.imag = k * x - 0.0 * y, k * y + 0.0 * x
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out, rho.slots)
    return out


def markov_xor_kraus(phi: float) -> KrausSet:
    """The same channel as two Kraus operators from the molecule readout."""
    return kraus_from_collision(xor_gate(), molecule_state(phi))


def markov_xor_fixed_point(rho0, phi: float) -> DensityMatrix:
    """Limit of repeated collisions: the dephased input.

    Raises when |sin 2 phi| = 1, where the coherence does not decay.
    """
    if abs(abs(np.sin(2.0 * phi)) - 1.0) < 1e-12:
        raise ValueError("coherence is not contracting at this angle; no unique fixed point")
    rho0 = system_state(rho0)
    out = np.diag(np.diagonal(rho0.matrix)).astype(complex)
    return DensityMatrix(out, rho0.slots)


# --- satellite-memory embedding -------------------------------------------

# the swap of the fresh molecule into the memory slot, the same in every step
_SWAP_MOL_MEM = _readonly(embed(swap_gate(), ("mol", MEMORY_SLOT, SYSTEM_SLOT), ("mol", MEMORY_SLOT)).matrix)


def build_embedding(model: ChainModel) -> tuple[UnitaryGate, KrausSet]:
    """Three-qubit step unitary and the compound Kraus pair of a two-collision model.

    The unitary lives on ("mol", "mem", "sys") and implements: collide the
    fresh molecule with the system, swap it into the memory slot, collide
    again. Reading the outgoing molecule in the computational basis gives
    two Kraus operators on the ("mem", "sys") compound: the blocks of the
    step that window_collide compiles for the model.
    """
    if model.kind not in (REPEATED_XOR, SQRT_XOR):
        raise ValueError(f"no satellite embedding for model kind {model.kind!r}")
    register = ("mol", MEMORY_SLOT, SYSTEM_SLOT)
    g = model.collision_gate()
    acting = tuple("mol" if role == "mol" else SYSTEM_SLOT for role in g.slot_roles)
    u_collide = embed(g, register, acting).matrix
    step = UnitaryGate(u_collide @ _SWAP_MOL_MEM @ u_collide, register, label=f"{g.label}-step")
    return step, kraus_from_collision(step, molecule_state(model.phi))


def delta(rho_tilde):
    """The single decaying coherence combination of the split-collision compound.

    A complex number for one compound state, an array for a stack (..., 4, 4).
    """
    m = as_matrix(rho_tilde)
    if m.shape[-2:] != (4, 4):
        raise ValueError("delta takes a two-qubit compound state")
    d = -1j * (m[..., 0, 1] + m[..., 2, 3]) + (m[..., 0, 3] + m[..., 2, 1])
    return complex(d) if m.ndim == 2 else d


def stationary_memory_vector(model: ChainModel) -> np.ndarray:
    """Memory state left behind when the system holds |1>."""
    c, s = np.cos(model.phi), np.sin(model.phi)
    if model.kind == REPEATED_XOR:
        return np.array([s, c], dtype=complex)
    if model.kind == SQRT_XOR:
        return np.array([1.0, -1j * np.exp(2j * model.phi)], dtype=complex) / np.sqrt(2.0)
    raise ValueError(f"no satellite stationary state for {model.kind!r}")


def stationary_state(model: ChainModel, rho0) -> DensityMatrix:
    """Long-time compound state of the embedding, the memory starting in |0>.

    The populations of rho0 survive; each pairs with its own pure memory
    state. (A memory start with transverse polarization keeps a
    non-decaying coherence.)
    """
    sys0 = system_state(rho0)
    if model.kind == SQRT_XOR and abs(abs(np.sin(2.0 * model.phi)) - 1.0) < 1e-12:
        if abs(sys0.matrix[0, 1]) > 1e-12:
            raise ValueError("coherence does not decay at this angle; no stationary limit")
    psi = molecule_state(model.phi).amplitudes
    psi_p = stationary_memory_vector(model)
    p00 = sys0.matrix[0, 0].real
    p11 = sys0.matrix[1, 1].real
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    out = p00 * tensor(np.outer(psi, psi.conj()), np.outer(ket0, ket0)) + p11 * tensor(
        np.outer(psi_p, psi_p.conj()), np.outer(ket1, ket1)
    )
    return DensityMatrix(out, (MEMORY_SLOT, SYSTEM_SLOT))


def stationary_overlap(model: ChainModel) -> float:
    """|<fresh molecule | stationary memory>| for the system-up branch."""
    psi = molecule_state(model.phi).amplitudes
    return float(abs(np.vdot(psi, stationary_memory_vector(model))))


# --- sliding-window engine -------------------------------------------------

STEP_CACHE_SIZE = 64

# The one step shape of each built-in model (see _step_isometry). markov-xor
# attaches one molecule and reads it out. The two-collision models attach the
# fresh molecule, collide it, collide the satellite (their one open molecule,
# the "mem" slot) and read the satellite out; the fresh molecule takes its place.
_BUILTIN_SHAPES = {MARKOV_XOR: (0, ((-1, 0),), (0,)),
                   REPEATED_XOR: (1, ((-1, 0), (0, 0)), (1,)), SQRT_XOR: (1, ((-1, 0), (0, 0)), (1,))}


def _attach(front: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """tensor(front, joint) for one state or each of a stack (..., D, D):
    the products np.kron forms, bit for bit."""
    d = front.shape[-1] * joint.shape[-1]
    return (front[:, None, :, None] * joint[..., None, :, None, :]).reshape(joint.shape[:-2] + (d, d))


@lru_cache(maxsize=STEP_CACHE_SIZE)
def _step_isometry(gate: UnitaryGate, phi: float, sign: float, n_open: int, events: tuple, closing: tuple) -> tuple:
    """(V, V^dagger) of one step shape: V = U_k ... U_1 (|psi(phi)>^fresh (x) I).

    The shape is n_open, the open molecules before the step, the events in
    listed order as (position in the incoming register or -1 for a fresh
    molecule, gate code), and the closing molecules' positions among the
    fresh (newest first) and open ones, in ascending id. V's output holds
    those first, then the others in that order, then the system. sign tells
    -0.0 from 0.0: they hash alike but prepare differently signed zeros.
    Keyed on the gate instance, so two gates with the same roles never
    share an entry.
    """
    fresh = sum(pos < 0 for pos, _ in events)
    n = n_open + fresh + 1
    psi = molecule_state(phi).amplitudes[:, None, None]
    v = np.eye(2 ** (n_open + 1), dtype=complex)
    for _ in range(fresh):
        v = (psi * v).reshape(-1, v.shape[1])  # np.kron(psi, v)
    newest = fresh  # a fresh molecule takes the slot in front of the one attached before it
    for pos, code in events:
        if pos < 0:
            newest -= 1
        q = newest if pos < 0 else fresh + pos
        g = _GATES[code] if code else gate
        v = apply_left(v, g, [q if role == "mol" else n - 1 for role in g.slot_roles], n)
    order = list(closing) + [q for q in range(n) if q not in closing]
    v = v.reshape((2,) * n + (-1,)).transpose(order + [n]).reshape(v.shape)
    vh = np.ascontiguousarray(v.conj().T)
    v.flags.writeable = vh.flags.writeable = False
    return v, vh


def _compiled(model: ChainModel, shape: tuple) -> tuple:
    """(V, V^dagger) of one step shape of the model, from the step cache."""
    return _step_isometry(model.collision_gate(), model.phi, math.copysign(1.0, model.phi), *shape)


def window_collide(
    joint: np.ndarray,
    open_ids: Sequence[int],
    model: ChainModel,
    t: int,
) -> tuple[np.ndarray, list, int]:
    """Step t of any model: attach fresh molecules and run the step's
    collisions, in listed order, as one product V @ joint @ V^dagger.

    joint may be one state or a stack of states (..., D, D) on the register
    of the open_ids molecules (newest first), then the model's own slots; a
    stack takes one product per state, so that a state's round-off does not
    depend on the states it is stacked with. V is compiled once per step
    shape (see _step_isometry) and kept in a bounded cache keyed on the
    collision gate instance and phi with its sign. A custom model's shape is
    read off step t of its schedule; a built-in model runs its one shape,
    _BUILTIN_SHAPES, at every t, with open_ids left as given. Mutates
    nothing; returns (joint, open_ids, closing): the new register holds the
    `closing` molecules whose last event is step t, in ascending id, then
    open_ids and the model's slots; reading or tracing out that front run
    is up to the caller.
    """
    if model.kind != CUSTOM:
        v, vh = _compiled(model, _BUILTIN_SHAPES[model.kind])
        return v @ joint @ vh, open_ids, 1
    schedule = model.schedule
    if t >= schedule.horizon:
        raise ValueError(f"schedule horizon {schedule.horizon} exhausted at t={t}")
    open_ids = list(open_ids)
    rows = schedule._step_slice(t)
    molecules = schedule.event_molecules[rows].tolist()
    events, fresh = [], []
    for molecule, code in zip(molecules, schedule.event_gates[rows].tolist()):
        if molecule in open_ids:
            events.append((open_ids.index(molecule), code))
        else:
            events.append((-1, code))
            fresh.insert(0, molecule)
    if not events:
        return joint, open_ids, 0
    register = fresh + open_ids
    closing = sorted(compress(molecules, schedule._closes[rows]))
    v, vh = _compiled(model, (len(open_ids), tuple(events), tuple(map(register.index, closing))))
    return v @ joint @ vh, [m for m in register if m not in closing], len(closing)


def _front_trace(a: np.ndarray, q: int) -> np.ndarray:
    """Trace out the first q qubits of one state or a stack (..., D, D);
    a itself when q = 0."""
    if not q:
        return a
    d = a.shape[-1] >> q
    return a.reshape(a.shape[:-2] + (2 ** q, d, 2 ** q, d)).trace(axis1=-4, axis2=-2)


# --- one evolution per model, and the reduced maps it defines --------------

def _step_powers(first: np.ndarray, ops: np.ndarray, steps: int) -> np.ndarray:
    """States [t=0 .. steps] of the channel with Kraus stack ops, from one
    state or a stack (..., d, d), as (..., steps + 1, d, d).

    A state's row-major vec r steps to r @ P, P = S^T with
    S = sum_k K_k (x) conj(K_k). Rows [n, 2n) are rows [0, n) times P^n, P^n
    by repeated squaring: ceil(log2(steps + 1)) products. Each takes all n
    rows, even where fewer are kept, so row t depends neither on steps (numpy
    takes another BLAS kernel for one row) nor, one product per state, on
    the stack. Each power's last column (the last diagonal entry) is re-set
    so that the diagonal columns of each row sum to that row's entry of
    vec(I); else P's ~1 ulp trace bias doubles with every squaring and the
    trace drifts linearly in t.
    """
    d = ops.shape[-1]
    rows = np.empty(first.shape[:-2] + (steps + 1, d * d), dtype=complex)
    rows[..., 0, :] = first.reshape(first.shape[:-2] + (d * d,))
    kt = ops.swapaxes(-1, -2)
    trace = np.eye(d).ravel()  # 1 at the diagonal entries of a row-major vec
    n = 1
    while n <= steps:
        if n == 1:  # P[(k, l), (i, j)] = sum_m K_m[i, k] conj(K_m[j, l])
            power = (kt[:, :, None, :, None] * kt.conj()[:, None, :, None, :]).sum(0).reshape(d * d, d * d)
        else:
            power = power @ power
        power[:, -1] = trace - power[:, :-1:d + 1].sum(1)
        rows[..., n:2 * n, :] = (rows[..., :n, :] @ power)[..., :steps + 1 - n, :]
        n *= 2
    return rows.reshape(rows.shape[:-1] + (d, d))


def _markov_powers(first: np.ndarray, phi: float, steps: int) -> np.ndarray:
    """markov_xor_step applied 0 .. steps times to one state or a stack
    (..., 2, 2), as (..., steps + 1, 2, 2), bit for bit.

    The populations stay; each coherence is one multiply.accumulate of
    k + 0j, k = sin(2 phi), along the steps. accumulate forms each complex
    product one element at a time, x*k - y*0.0 and x*0.0 + y*k, unfused (an
    array product may fuse a multiply-add), so every signed zero and
    underflow matches the step's.
    """
    rows = np.empty(first.shape[:-2] + (steps + 1, 4), dtype=complex)
    rows[...] = first.reshape(first.shape[:-2] + (1, 4))
    coherences = rows[..., 1:3]
    coherences[..., 1:, :] = complex(np.sin(2.0 * phi), 0.0)
    np.multiply.accumulate(coherences, axis=-2, out=coherences)
    return rows.reshape(rows.shape[:-1] + (2, 2))


def _system_stack(states) -> np.ndarray:
    """One system state or a stack (..., 2, 2) as a checked complex array."""
    if isinstance(states, DensityMatrix):
        return system_state(states).matrix
    m = np.ascontiguousarray(np.asarray(states, dtype=complex))
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"matrix shape {m.shape} does not fit 1 qubit slots")
    check_states(m)
    return m


def evolve(model: ChainModel, states, steps: int, mem0=None) -> tuple[np.ndarray, tuple[str, ...]]:
    """States [t=0 .. steps] of one system state or a stack (..., 2, 2), as one array.

    Returns (stack, slots): stack has shape (..., steps + 1, D, D) on the
    register slots. markov-xor gives the system state, the two-collision
    models the ("mem", "sys") compound of the satellite embedding with the
    memory starting in mem0 (default |0><0|), and custom models the system
    marginal of the window engine. Only the two-collision models have a
    memory slot; mem0 for any other kind raises. Every state of the stack is
    checked as a DensityMatrix would be, in one pass.

    markov-xor runs _markov_powers, bit for bit its closed-form step. The
    two-collision models run _step_powers on the blocks of their compiled V:
    ceil(log2(steps + 1)) products with powers of one step's transfer
    matrix, in place of one V rho V^dagger per step, so their rows agree
    with a per-step run to round-off. Custom models step through
    window_collide, trace out the molecules read out and
    record the front trace of the open ones. The products are Hermitian only
    to round-off, so every row after t = 0 gets an exactly real diagonal,
    once per call.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    embedded = model.kind in (REPEATED_XOR, SQRT_XOR)
    if mem0 is not None and not embedded:
        raise ValueError(f"{model.kind} has no memory slot; mem0 does not apply")
    joint = _system_stack(states)
    if embedded:
        joint = _attach(_memory_array(mem0), joint)
        check_states(joint)
        stack = _step_powers(joint, _compiled(model, _BUILTIN_SHAPES[model.kind])[0].reshape(2, 4, 4), steps)
    elif model.kind == MARKOV_XOR:
        stack = _markov_powers(joint, model.phi, steps)
    else:
        if steps > model.schedule.horizon:
            raise ValueError(f"steps {steps} exceed the schedule horizon {model.schedule.horizon}")
        stack = np.empty(joint.shape[:-2] + (steps + 1,) + joint.shape[-2:], dtype=complex)
        stack[..., 0, :, :] = joint
        open_ids = []
        for t in range(steps):
            joint, open_ids, closing = window_collide(joint, open_ids, model, t)
            joint = _front_trace(joint, closing)
            stack[..., t + 1, :, :] = _front_trace(joint, len(open_ids))
    diag = np.arange(stack.shape[-1])
    stack.imag[..., 1:, diag, diag] = 0.0
    check_states(stack)
    return stack, (MEMORY_SLOT, SYSTEM_SLOT) if embedded else (SYSTEM_SLOT,)


def simulate(model: ChainModel, rho0, steps: int, mem0=None) -> list[DensityMatrix]:
    """States [t=0 .. steps] on the model's register, one DensityMatrix each.

    The list view of evolve for one system state rho0.
    """
    stack, slots = evolve(model, rho0, steps, mem0)
    return [DensityMatrix(m, slots) for m in stack]


def system_marginals(stack: np.ndarray, slots: tuple[str, ...]) -> np.ndarray:
    """The system states of an evolve stack, checked.

    A stack on the system slot alone is returned as it is: evolve checked it.
    """
    if slots == (SYSTEM_SLOT,):
        return stack
    out = _front_trace(stack, len(slots) - 1)  # the system is the last slot
    check_states(out)
    return out


# the four d = 2 probes of system_maps, in the order map_from_probes reads them
_PROBES = _readonly(np.stack(tomography_probes(2)))


def system_maps(model: ChainModel, t_max: int, mem0=None) -> np.ndarray:
    """Accumulated reduced maps of the system as one (t_max, 4, 4) stack;
    entry t - 1 is the map up to step t.

    The four tomography probes run for t_max steps as one evolve stack (the
    two-collision models start their memory in mem0, default |0><0|), and
    one map_from_probes call rebuilds every map from the probes' system
    marginals. The cost is O(t_max) for every model.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    stack, slots = evolve(model, _PROBES, t_max, mem0)
    return map_from_probes(system_marginals(stack, slots)[:, 1:], 2)
