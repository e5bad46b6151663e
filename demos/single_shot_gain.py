"""How much does one optimal compression buy?

Walks through the single-shot story: take n identical qubits at polarization
alpha, apply the fixed weight-ordering compression, and look at the target
qubit afterwards.  The same permutation amplifies negative biases downward,
which is the whole point: no prior knowledge of the sign is needed.

Run:  python demos/single_shot_gain.py
"""

import numpy as np

from coolsign import (
    alpha_ac,
    alpha_ac_erf,
    compress_products,
    marginal_targets,
    product_probs,
    reduction_factor_ac,
)

print("Polarization gain from a single optimal compression")
print(f"{'alpha':>8} {'n=3':>10} {'n=5':>10} {'n=9':>10} {'erf(n=9)':>10}")
for alpha in (-0.8, -0.3, 0.05, 0.3, 0.5, 0.8):
    row = [alpha_ac(n, alpha) for n in (3, 5, 9)]
    print(f"{alpha:8.2f} {row[0]:10.5f} {row[1]:10.5f} {row[2]:10.5f}"
          f" {alpha_ac_erf(9, alpha):10.5f}")

print()
print("The closed form is just the marginal of the reordered register:")
before = product_probs(0.5, 3)
after = compress_products(before, 3)
print("  populations before:", np.round(before, 5))
print("  populations after: ", np.round(after, 5))
print("  target polarization 0.5 ->", float(marginal_targets(after)))

print()
print("Sampling-error reduction at matched qubit budget (k shots vs k/n):")
print(f"{'alpha':>8} {'n=3':>10} {'n=5':>10} {'n=9':>10}")
for alpha in (0.05, 0.2, 0.5, 0.8, 0.95):
    factors = [reduction_factor_ac(n, alpha) for n in (3, 5, 9)]
    print(f"{alpha:8.2f} {factors[0]:10.4f} {factors[1]:10.4f} {factors[2]:10.4f}")
print("\nBelow roughly alpha ~ sqrt(pi/2n) the factor sits near 2/pi < 1:")
print("compression does not pay off in the low-polarization regime.")
