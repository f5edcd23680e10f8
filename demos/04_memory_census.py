"""Memory census across the chain models.

Counting carried qubits tells Markovian from non-Markovian layouts, but
not what kind of memory the carried qubit holds. For that the report
measures the stationary system-memory correlations: mutual information,
its best projectively-extractable part, and the discord left over.
A positive discord means the memory is genuinely quantum.
"""

import numpy as np

from nmchain.chains import (
    custom_chain,
    markov_xor,
    repeated_xor,
    schedule_from_records,
    sqrt_xor,
)
from nmchain.gates import xor_gate
from nmchain.measures import nm_report

rho0 = np.diag([0.75, 0.25])


def show(label, r):
    print(f"{label:<34} memory qubits: {r.count_qubits}")
    if r.mutual_info is not None:
        print(f"{'':<34} I={r.mutual_info:.6f}  J={r.classical_J:.6f}  D={r.discord:.6f}")
    print(f"{'':<34} -> {r.classification}")
    print()


show("single collision, phi=pi/6", nm_report(markov_xor(np.pi / 6), rho0))
show("repeated XOR, phi=pi/6", nm_report(repeated_xor(np.pi / 6), rho0))
show("split XOR, phi=0.3", nm_report(sqrt_xor(0.3), rho0))

# phi=0 makes the molecule |0>, the collisions commute with the readout
# and every quantum measure collapses to the classical one.
show("repeated XOR, phi=0", nm_report(repeated_xor(0.0), rho0))

sched = schedule_from_records(
    [{"t": t, "mol": m} for m in range(5) for t in (m, m + 1)]
)
show("custom overlapping layout", nm_report(custom_chain(xor_gate(), sched, phi=0.4), rho0))
