"""Stepwise divisibility of the reduced system dynamics.

The accumulated maps rho(0) -> rho(t) are always channels. Divisibility
asks whether each intermediate step rho(t) -> rho(t+1) is one too, which
needs the earlier accumulated map inverted. When that map is singular the
step is genuinely indeterminate from the reduced dynamics alone, and the
scan says so instead of guessing.
"""

import numpy as np

from nmchain.channels import divisibility_scan
from nmchain.chains import markov_xor, repeated_xor, sqrt_xor, system_maps
from nmchain.gates import molecule_state

T = 8


def show(label, model, mem0=None):
    maps = system_maps(model, T, mem0=mem0)
    print(label)
    for t, s in enumerate(divisibility_scan(maps), start=1):
        if s.exists is None:
            print(f"  t={t:2d}  indeterminate (smallest singular value"
                  f" {s.smallest_singular:.1e})")
        else:
            tag = "CP" if s.exists else "NOT CP"
            print(f"  t={t:2d}  min Choi eig = {s.min_choi_eig:+.3e}  {tag}")
    print()


phi = 0.3

show("single collision (memoryless)", markov_xor(phi))
show("split XOR from a fresh-molecule memory", sqrt_xor(phi))

# Repeated XOR with the default |0> memory dephases the system completely
# in one step; every later intermediate map is then unrecoverable.
show("repeated XOR from the default |0> memory", repeated_xor(phi))

psi = molecule_state(phi)
show(
    "repeated XOR from a fresh-molecule memory",
    repeated_xor(phi),
    mem0=np.outer(psi, psi.conj()),
)
