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
compiled by _step_isometry where it is read: once per run, per one-step
call or per step_instrument call; nothing caches it. A schedule is a
table of runs of one step shape (CollisionSchedule.runs), scanned once,
when a window step first needs it; a gap-k double-collision layout has
2k + 1 runs at any horizon. evolve and the walker step a custom model
run by run (window_runs), with one V per run, and window_collide is the
one-step form. A built-in model is a window with one step shape: markov-xor attaches one molecule
and reads it out, and the two-collision compound is a window whose one
open molecule is the satellite. Its step, with the readout, is the
instrument T_j = K_j (x) conj(K_j) of its V's blocks K_j, which
step_instrument gives; the trajectory walker reads its children off it.
evolve runs a built-in model without a per-step call: every two-collision
step is one fixed linear map of the compound, so the run is filled by
powers of the transfer matrix (T_0 + T_1)^T; markov-xor multiplies its
coherences along the steps, bit for bit its closed-form step, which keeps
the populations exact. evolve gives every model's rows after t = 0
exactly real diagonals.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .channels import kraus_from_collision, map_from_probes, tomography_probes
from .gates import UnitaryGate, apply_left, embed, molecule_state, sqrt_xor_gate, swap_gate, xor_gate
from .linalg import DensityMatrix, as_matrix, check_states, tensor, trace_front

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
        # beside each event, whether it is its molecule's last: the
        # molecules a step reads out
        closes = np.empty(len(mol), dtype=bool)
        closes[by_mol] = last
        self._closes = closes[order]
        # for the census: all first steps and all last steps, each sorted
        self._ends = (np.sort(self._first), np.sort(self._last))
        # the run table, built by runs() when a window step first needs it:
        # the census and the schedule printer never do
        self._runs = self._run_starts = None

    def runs(self) -> tuple:
        """Steps 0 .. horizon - 1 as runs of one step shape: a tuple of
        (shape, first step, count) in step order, neighbours of different shape.

        A shape is what _step_isometry compiles: (the open molecules before
        the step, its events as (position in the open register, newest first,
        or -1 for a fresh molecule; gate code) in listed order, the positions
        of the molecules it closes among the fresh (newest first) and open
        ones, in ascending id). A step without events has the shape
        (open, (), ()). Built by one scan of the events on the first call and
        kept on the schedule.
        """
        if self._runs is None:
            self._runs = self._scan_runs()
            self._run_starts = [start for _, start, _ in self._runs]
        return self._runs

    def _scan_runs(self) -> tuple:
        # One step's shape at a time, from the open register before it. A
        # step that repeats the one before it shifted by d (the next step,
        # as many events, each on the molecule listed at its place in that
        # step plus d, with the same gate and closing) has the earlier
        # step's shape when its open register is the earlier one plus d;
        # then so has every later step of a stretch of such repeats with one
        # d, by induction, and the scan takes the stretch in one go.
        steps, molecules, codes, closes = self.event_steps, self.event_molecules, self.event_gates, self._closes
        n = len(steps)
        if not n:
            return (((0, (), ()), 0, self.horizon),)
        edge = np.ones(n + 1, dtype=bool)
        edge[1:n] = steps[1:] != steps[:-1]
        bounds = edge.nonzero()[0]  # each step's first event, then n
        lo, size = bounds[:-1], bounds[1:] - bounds[:-1]
        prev = np.arange(n) - size.repeat(size)  # the event at this one's place a step before
        shift = molecules - molecules[prev]
        same = (shift == shift[lo].repeat(size)) & (codes == codes[prev]) & (closes == closes[prev])
        at, shift = steps[lo], shift[lo]
        repeats = np.logical_and.reduceat(same, lo)
        repeats[1:] &= (at[1:] == at[:-1] + 1) & (size[1:] == size[:-1])
        repeats[0] = False
        # the steps after which a stretch of repeats with one shift ends
        goes_on = repeats[1:] & repeats[:-1] & (shift[1:] == shift[:-1])
        ends = np.flatnonzero(~goes_on).tolist() + [len(lo) - 1]
        at, bounds, repeats, shift = at.tolist(), bounds.tolist(), repeats.tolist(), shift.tolist()
        molecules, codes, closes = molecules.tolist(), codes.tolist(), closes.tolist()
        runs, open_ids, t, i = [], [], 0, 0

        def add(shape, start, count):
            if runs and runs[-1][0] == shape:
                runs[-1][2] += count
            else:
                runs.append([shape, start, count])

        while i < len(at):
            if at[i] > t:
                add((len(open_ids), (), ()), t, at[i] - t)
            rows = slice(bounds[i], bounds[i + 1])
            events, register = [], list(open_ids)
            for molecule, code in zip(molecules[rows], codes[rows]):
                if molecule in open_ids:
                    events.append((open_ids.index(molecule), code))
                else:
                    events.append((-1, code))
                    register.insert(0, molecule)
            closing = sorted(compress(molecules[rows], closes[rows]))
            shape = (len(open_ids), tuple(events), tuple(map(register.index, closing)))
            held = [m for m in register if m not in closing]
            k = i + 1
            if k < len(at) and repeats[k] and held == [m + shift[k] for m in open_ids]:
                k = ends[bisect.bisect_left(ends, k)] + 1
                held = [m + (k - i - 1) * shift[i + 1] for m in held]
            add(shape, at[i], k - i)
            open_ids, t, i = held, at[k - 1] + 1, k
        if t < self.horizon:
            add((len(open_ids), (), ()), t, self.horizon - t)
        return tuple(map(tuple, runs))

    def step_shape(self, step: int) -> tuple:
        """The shape of one step (see runs), read from the run table."""
        if not 0 <= step < self.horizon:
            raise ValueError(f"step {step} outside horizon {self.horizon}")
        runs = self.runs()
        return runs[bisect.bisect_right(self._run_starts, step) - 1][0]

    def open_after(self, step: int, open_ids: Sequence[int]) -> list:
        """The molecules open after the step, newest first, given open_ids,
        those open before it: the step's fresh molecules (newest first) and
        open_ids, less the ones the step closes."""
        _, events, closing = self.step_shape(step)
        fresh = [m for m, (pos, _) in zip(self.event_molecules[self._step_slice(step)].tolist(), events) if pos < 0]
        register = fresh[::-1] + list(open_ids)
        return [m for q, m in enumerate(register) if q not in closing]

    def _step_slice(self, step: int) -> slice:
        return slice(*self.event_steps.searchsorted([step, step + 1]))

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
    """The memory's start state, |0><0| by default; a given one is checked as a state."""
    if mem0 is None:
        return np.diag([1.0, 0.0]).astype(complex)
    m = as_matrix(mem0)
    if m.shape != (2, 2):
        raise ValueError("memory state must be a single qubit")
    check_states(m)
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


def markov_xor_kraus(phi: float) -> np.ndarray:
    """The same channel as a (2, 2, 2) array of Kraus operators from the molecule readout."""
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

def build_embedding(model: ChainModel) -> tuple[UnitaryGate, np.ndarray]:
    """Three-qubit step unitary and the compound Kraus pair of a two-collision model.

    The unitary lives on ("mol", "mem", "sys") and implements: collide the
    fresh molecule with the system, swap it into the memory slot, collide
    again. Reading the outgoing molecule in the computational basis gives
    a (2, 4, 4) array of Kraus operators on the ("mem", "sys") compound:
    the blocks K_k of the step that step_instrument reads for the model.
    """
    if model.kind not in (REPEATED_XOR, SQRT_XOR):
        raise ValueError(f"no satellite embedding for model kind {model.kind!r}")
    register = ("mol", MEMORY_SLOT, SYSTEM_SLOT)
    g = model.collision_gate()
    acting = tuple("mol" if role == "mol" else SYSTEM_SLOT for role in g.slot_roles)
    u_collide = embed(g, register, acting).matrix
    u_swap = embed(swap_gate(), register, ("mol", MEMORY_SLOT)).matrix
    step = UnitaryGate(u_collide @ u_swap @ u_collide, register, label=f"{g.label}-step")
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
    psi = molecule_state(model.phi)
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
    psi = molecule_state(model.phi)
    return float(abs(np.vdot(psi, stationary_memory_vector(model))))


# --- sliding-window engine -------------------------------------------------

# The one step shape of each built-in model (see _step_isometry). markov-xor
# attaches one molecule and reads it out. The two-collision models attach the
# fresh molecule, collide it, collide the satellite (their one open molecule,
# the "mem" slot) and read the satellite out; the fresh molecule takes its place.
_BUILTIN_SHAPES = {MARKOV_XOR: (0, ((-1, 0),), (0,)),
                   REPEATED_XOR: (1, ((-1, 0), (0, 0)), (1,)), SQRT_XOR: (1, ((-1, 0), (0, 0)), (1,))}


def _step_isometry(model: ChainModel, shape: tuple) -> tuple:
    """(V, V^dagger) of one step shape of the model:
    V = U_k ... U_1 (|psi(phi)>^fresh (x) I), compiled on every call.

    The shape is (n_open, events, closing): the open molecules before the
    step, the events in listed order as (position in the incoming register
    or -1 for a fresh molecule, gate code), and the closing molecules'
    positions among the fresh (newest first) and open ones, in ascending
    id. V's output holds those first, then the others in that order, then
    the system.
    """
    n_open, events, closing = shape
    gate = model.collision_gate()
    fresh = sum(pos < 0 for pos, _ in events)
    n = n_open + fresh + 1
    psi = molecule_state(model.phi)[:, None]
    v = np.eye(2 ** (n_open + 1), dtype=complex)
    for _ in range(fresh):
        v = tensor(psi, v)
    newest = fresh  # a fresh molecule takes the slot in front of the one attached before it
    for pos, code in events:
        if pos < 0:
            newest -= 1
        q = newest if pos < 0 else fresh + pos
        g = _GATES[code] if code else gate
        v = apply_left(v, g, [q if role == "mol" else n - 1 for role in g.slot_roles], n)
    order = list(closing) + [q for q in range(n) if q not in closing]
    v = v.reshape((2,) * n + (-1,)).transpose(order + [n]).reshape(v.shape)
    return v, np.ascontiguousarray(v.conj().T)


def step_instrument(model: ChainModel) -> np.ndarray:
    """The one step of a built-in model as an instrument: the read-only
    (2, d^2, d^2) stack T_j = K_j (x) conj(K_j), K_j = <j| V the blocks of
    its compiled V, on the register's row-major vec.

    A state's vec r has the unnormalised child r @ T_j^T for readout j, and
    steps to r @ (T_0 + T_1)^T. Formed on every call from a V compiled for
    it; a custom model, whose step shapes vary, is refused.
    """
    if model.kind == CUSTOM:
        raise ValueError("a custom model has no one step instrument; it steps run by run through window_runs")
    v = _step_isometry(model, _BUILTIN_SHAPES[model.kind])[0]
    d = v.shape[1]
    ops = v.reshape(2, d, d)
    # one broadcast product, not einsum: evolve's and the walker's outputs carry its bits
    return _readonly((ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]).reshape(2, d * d, d * d))


def window_collide(
    joint: np.ndarray,
    open_ids: Sequence[int],
    model: ChainModel,
    t: int,
) -> tuple[np.ndarray, list, int]:
    """Step t of a custom model: attach fresh molecules and run the step's
    collisions, in listed order, as one product V @ joint @ V^dagger.

    joint may be one state or a stack of states (..., D, D) on the register
    of the open_ids molecules (newest first), then the system; a stack
    takes one product per state, so that a state's round-off does not
    depend on the states it is stacked with. The step's shape is read from
    the schedule's run table (CollisionSchedule.runs), and V is compiled
    for it on every call (see _step_isometry). A built-in model is
    refused: its one step is step_instrument. evolve and the walker step a
    whole run at a time (window_runs); this is the one-step form.
    Mutates nothing; returns (joint, open_ids, closing): the new register
    holds the `closing` molecules whose last event is step t, in ascending
    id, then open_ids and the system; reading or tracing out that front run
    is up to the caller.
    """
    if model.kind != CUSTOM:
        raise ValueError(f"{model.kind} steps through step_instrument, not window_collide")
    schedule = model.schedule
    if t >= schedule.horizon:
        raise ValueError(f"schedule horizon {schedule.horizon} exhausted at t={t}")
    shape = schedule.step_shape(t)
    if not shape[1]:
        return joint, list(open_ids), 0
    v, vh = _step_isometry(model, shape)
    return v @ joint @ vh, schedule.open_after(t, open_ids), len(shape[2])


def window_runs(model: ChainModel, steps: int):
    """The runs of a custom model's first `steps` steps, in order, from its
    schedule's run table: (V, V^dagger, closing, held, first step, count)
    each, count cut at steps. V is compiled once per run, as the run is
    reached, and is None, with V^dagger, on a run of steps without events;
    each step of the run reads out `closing` molecules, the front run of
    V's output, and leaves `held` open.
    """
    if model.kind != CUSTOM:
        raise ValueError(f"{model.kind} steps through step_instrument, not window_runs")
    for shape, start, count in model.schedule.runs():
        if start >= steps:
            return
        n_open, events, closing = shape
        v, vh = _step_isometry(model, shape) if events else (None, None)
        fresh = sum(pos < 0 for pos, _ in events)
        yield v, vh, len(closing), n_open + fresh - len(closing), start, min(count, steps - start)


# bytes of register states a run holds before their system marginals are
# taken together; a whole 300-step run of one 4-qubit register would hold
# 1.2 MB, and of the four probes of system_maps 4.9 MB
RUN_BUFFER_BYTES = 1 << 16


def _evolve_run(joint: np.ndarray, run: tuple, rows: np.ndarray) -> np.ndarray:
    """Step joint, one state or a stack (..., D, D), through one run of
    window_runs: the run's V @ joint @ V^dagger, then the front trace of the
    molecules read out, on every step. Writes the system marginal after
    step t to rows[t + 1], rows of shape (steps + 1, ..., 2, 2), from one
    front trace of the open molecules per RUN_BUFFER_BYTES of held register
    states, and returns the last register state.
    """
    v, vh, closing, held, start, count = run
    d = 2 << held  # the register after each step: the held molecules and the system
    cap = max(1, RUN_BUFFER_BYTES // (joint[..., 0, 0].nbytes * d * d))
    buffer = []
    for row in range(start + 1, start + count + 1):
        if v is not None:
            joint = v @ joint @ vh
        joint = trace_front(joint, closing)
        buffer.append(joint)
        if len(buffer) == cap or row == start + count:
            rows[row + 1 - len(buffer):row + 1] = trace_front(np.array(buffer), held)
            buffer = []
    return joint


# --- one evolution per model, and the reduced maps it defines --------------

def _step_powers(first: np.ndarray, model: ChainModel, steps: int) -> np.ndarray:
    """States [t=0 .. steps] of a two-collision model's step channel, from
    one state or a stack (..., d, d), as (..., steps + 1, d, d).

    A state's row-major vec r steps to r @ P, P = (T_0 + T_1)^T with
    T = step_instrument(model), formed at the first step (0 steps form
    none). Rows [n, 2n) are rows [0, n) times P^n, P^n by repeated
    squaring: ceil(log2(steps + 1)) products. Each takes all n
    rows, even where fewer are kept, so row t depends neither on steps (numpy
    takes another BLAS kernel for one row) nor, one product per state, on
    the stack. Each power's last column (the last diagonal entry) is re-set
    so that the diagonal columns of each row sum to that row's entry of
    vec(I); else P's ~1 ulp trace bias doubles with every squaring and the
    trace drifts linearly in t.
    """
    d = first.shape[-1]
    rows = np.empty(first.shape[:-2] + (steps + 1, d * d), dtype=complex)
    rows[..., 0, :] = first.reshape(first.shape[:-2] + (d * d,))
    trace = np.eye(d).ravel()  # 1 at the diagonal entries of a row-major vec
    n = 1
    while n <= steps:
        if n == 1:  # P as a C-ordered array of its own: the products' bits depend on the layout
            power = step_instrument(model).sum(0).T.copy()
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
    memory slot; mem0 for any other kind raises. A given mem0 is checked as a
    state before it is attached, and every state of the stack is checked as
    a DensityMatrix would be, in one pass.

    markov-xor runs _markov_powers, bit for bit its closed-form step. The
    two-collision models run _step_powers on their step_instrument, which
    steps = 0 (the walker's start) never forms: ceil(log2(steps + 1))
    products with powers of one step's transfer matrix, in place of one
    V rho V^dagger per step, so their rows agree with a per-step run to
    round-off. Custom models step run by run through window_runs, trace
    out the molecules read out after each step and take the system
    marginals of a run's register states with one front trace per
    RUN_BUFFER_BYTES of them: the same products as a per-step run. The
    products are Hermitian only to round-off, so every row after t = 0 gets
    an exactly real diagonal, once per call.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    embedded = model.kind in (REPEATED_XOR, SQRT_XOR)
    if mem0 is not None and not embedded:
        raise ValueError(f"{model.kind} has no memory slot; mem0 does not apply")
    joint = _system_stack(states)
    if embedded:
        joint = tensor(_memory_array(mem0), joint)
        stack = _step_powers(joint, model, steps)
    elif model.kind == MARKOV_XOR:
        stack = _markov_powers(joint, model.phi, steps)
    else:
        if steps > model.schedule.horizon:
            raise ValueError(f"steps {steps} exceed the schedule horizon {model.schedule.horizon}")
        rows = np.empty((steps + 1,) + joint.shape, dtype=complex)
        rows[0] = joint
        for run in window_runs(model, steps):
            joint = _evolve_run(joint, run, rows)
        stack = np.ascontiguousarray(np.moveaxis(rows, 0, -3))
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
    out = trace_front(stack, len(slots) - 1)  # the system is the last slot
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
