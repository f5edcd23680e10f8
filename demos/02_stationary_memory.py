"""Stationary compound states of the two-collision chains.

Both overlapping layouts (repeated XOR and split sqrt-XOR collisions)
relax to a compound state where each system population pairs with its own
pure memory state. How distinguishable those two memory states are is
what the overlap below quantifies. For the split gate the overlap never
drops under 1/sqrt(2), so its leftover memory stays partly quantum.
"""

import numpy as np

from nmchain import trace_norm_distance
from nmchain.chains import (
    build_embedding,
    delta,
    repeated_xor,
    simulate,
    sqrt_xor,
    stationary_overlap,
    stationary_state,
)
from nmchain.channels import apply_kraus

rho0 = np.array([[0.62, 0.2 - 0.05j], [0.2 + 0.05j, 0.38]])

for factory in (repeated_xor, sqrt_xor):
    print(f"--- {factory.__name__} ---")
    for phi in (0.3, np.pi / 6, 1.1):
        model = factory(phi)
        stat = stationary_state(model, rho0)
        moved = trace_norm_distance(apply_kraus(build_embedding(model)[1], stat), stat)
        ov = stationary_overlap(model)
        print(
            f"phi={phi:.4f}  one-step movement={moved:.2e}"
            f"  |<fresh|stationary memory>|={ov:.6f}"
        )
    print()

print("split-gate overlap bound: min over phi grid =", end=" ")
grid = np.linspace(0.01, np.pi / 2 - 0.01, 400)
print(f"{min(stationary_overlap(sqrt_xor(p)) for p in grid):.6f}  (1/sqrt 2 = {1/np.sqrt(2):.6f})")

# At sin(2 phi) = 1 the internal coherence parameter stops decaying, so
# there is no closed-form stationary state for a coherent start. The
# orbit still freezes (after two steps); it just remembers the initial
# coherence.
print()
print("critical angle phi = pi/4, coherent start:")
model = sqrt_xor(np.pi / 4)
frozen = simulate(model, rho0, steps=10)[-1]
print("  residual coherence parameter |Delta| =", f"{abs(delta(frozen)):.6f}")
moved = trace_norm_distance(apply_kraus(build_embedding(model)[1], frozen), frozen)
print("  one-step movement =", f"{moved:.2e}")
