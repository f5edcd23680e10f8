"""Selective readout trajectories: exact enumeration and seeded sampling.

Reading each molecule out after its last collision splits the evolution
into branches. Averaging the branches with their probabilities must give
back the non-selective state, and it does, whether the branches come from
exact enumeration or from a Monte Carlo ensemble. Sample i is driven by
the stream (seed, i) alone, so its record is bitwise the same however
many samples are drawn with it.
"""

import numpy as np

from nmchain import trace_norm_distance
from nmchain.chains import repeated_xor, simulate
from nmchain.trajectories import branch_average, enumerate_branches, sample_ensemble

PHI = 0.35
T = 8
rho0 = np.array([[0.6, 0.15 + 0.1j], [0.15 - 0.1j, 0.4]])
model = repeated_xor(PHI)

records = enumerate_branches(model, rho0, T)
total = sum(r.probability for r in records)
print(f"enumeration: {len(records)} branches over {T} steps,"
      f" total probability = {total:.15f}")

exact = simulate(model, rho0, T)[-1]
avg = branch_average(records)
print(f"branch average vs non-selective state: {trace_norm_distance(avg, exact.matrix):.2e}")

top = sorted(records, key=lambda r: -r.probability)[:3]
for r in top:
    word = "".join(str(o) for o in r.outcomes)
    print(f"  readout {word}  p = {r.probability:.6f}")

print()
n = 20000
m = n // 4
stats = sample_ensemble(model, rho0, T, n_samples=n, seed=7)
head = sample_ensemble(model, rho0, T, n_samples=m, seed=7)
same = np.array_equal(stats.outcomes[:m], head.outcomes) and np.array_equal(
    stats.log_probabilities[:m], head.log_probabilities
)
print(f"sampled {n} trajectories, first {m} bitwise identical to a {m}-sample run: {same}")
err = trace_norm_distance(stats.mean_state, exact)
print(f"Monte Carlo mean vs exact non-selective state: {err:.4f} (O(1/sqrt n))")
print("first-step outcome counts:", stats.outcome_frequencies[0])
