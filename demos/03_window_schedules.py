"""Sliding-window simulation of overlapping collision layouts.

A schedule says which molecule collides with the system at which step. The
window engine keeps only the molecules that still have a future collision,
so memory cost follows the overlap structure instead of the chain length.
The satellite count (molecules straddling a step boundary) is exactly the
number of memory qubits a Markov embedding of the layout needs.
"""

import numpy as np

from nmchain import partial_trace, trace_norm_distance
from nmchain.chains import (
    advanced_overlap_schedule,
    chain_schedule,
    custom_chain,
    overlap_schedule,
    satellite_count,
    schedule_from_records,
    simulate,
    single_molecule_schedule,
    sqrt_xor,
    window_width,
)
from nmchain.gates import molecule_state, sqrt_xor_gate

H = 8
layouts = [
    ("fresh molecule each step", chain_schedule(H)),
    ("one molecule, hit repeatedly", single_molecule_schedule(H)),
    ("each molecule hit twice, gap 1", overlap_schedule(H)),
    ("each molecule hit twice, gap 2", advanced_overlap_schedule(H)),
]
print(f"{'layout':<32} {'satellites':>10} {'window width':>13}")
for name, sched in layouts:
    print(f"{name:<32} {satellite_count(sched):>10} {window_width(sched):>13}")

# Window run vs the one-memory-qubit embedding: the built-in sqrt-xor
# layout runs through the window engine as a custom model with the same
# gate and schedule. The embedding starts from a fresh-molecule memory;
# marginals agree until the last window step, which is still waiting for
# its second collision.
phi = 0.37
steps = 7
rho0 = np.array([[0.55, 0.21 + 0.08j], [0.21 - 0.08j, 0.45]])
model = sqrt_xor(phi)
window = simulate(custom_chain(model.collision_gate(), overlap_schedule(steps), phi=phi), rho0, steps)
psi = molecule_state(phi)
emb = simulate(model, rho0, steps=steps, mem0=np.outer(psi, psi.conj()))
print()
print("window engine vs satellite embedding (system marginals):")
for t in range(steps - 1):
    d = trace_norm_distance(window[t], partial_trace(emb[t], "sys"))
    print(f"  t={t}  distance={d:.2e}")

# The same engine accepts hand-written schedules.
records = [
    {"t": 0, "mol": 0},
    {"t": 1, "mol": 0},
    {"t": 1, "mol": 1},
    {"t": 2, "mol": 2},
    {"t": 3, "mol": 1},
    {"t": 3, "mol": 2},
]
sched = schedule_from_records(records)
custom = custom_chain(sqrt_xor_gate(), sched, phi=phi)
out = simulate(custom, rho0, sched.horizon)
print()
print(f"custom 3-molecule layout: satellites={satellite_count(sched)},"
      f" width={window_width(sched)}")
print("final system state:")
print(np.array_str(out[-1].matrix.round(6), precision=6, suppress_small=True))
