"""Fibonacci numbers hiding in the 3-local refrigerator.

Restricting the compression to sliding 3-qubit windows makes the circuit
hardware-friendly.  The cost shows up in the cooling limit: the per-qubit
ground populations follow p^F / (p^F + q^F) with Fibonacci exponents F,
instead of the powers of two the full staircase reaches.

Run:  python demos/klocal_fibonacci.py
"""

from coolsign import (
    RefrigeratorConfig,
    alpha_infinity,
    alpha_infinity_3local,
    asymptotic_population_vector,
    fibonacci,
    steady_states,
)

ALPHA = 0.5

print("Asymptotic ground populations (string end -> target), alpha = 0.5:")
for n in (4, 5, 6):
    asym = asymptotic_population_vector(n, ALPHA)
    pops = ", ".join(f"{p:.6f}" for p in asym.populations)
    print(f"  n={n}: [{pops}]")
    print(f"       fibonacci exponents: {[fibonacci(j) for j in range(1, n + 1)]}")

print("\nCooling limits, 3-local vs full staircase (m = 2):")
print(f"{'n':>3} {'F_n':>5} {'3-local limit':>15} {'full limit':>15}")
for n in (4, 5, 6, 8, 10):
    print(f"{n:3d} {fibonacci(n):5d} {alpha_infinity_3local(n, ALPHA):15.10f}"
          f" {alpha_infinity(n, 2, ALPHA):15.10f}")

print("\nFinite rounds, n=5: the practical gap is modest outside low alpha:")
print(f"{'alpha':>7} {'3-local (9 rounds)':>19} {'full (9 rounds)':>16}")
grid = (0.2, 0.4, 0.6, 0.8)
local = steady_states(RefrigeratorConfig(5, 2, 9, locality="3local"), grid)
full = steady_states(RefrigeratorConfig(5, 2, 9), grid)
for alpha, lo, fu in zip(grid, local, full):
    print(f"{alpha:7.1f} {lo.alpha_enhanced:19.8f} {fu.alpha_enhanced:16.8f}")
