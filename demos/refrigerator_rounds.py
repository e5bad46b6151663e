"""Watch the refrigerator converge, round by round and cycle by cycle.

A 5-qubit register with 2 reset qubits is driven toward its steady state.
The first few rounds buy most of the polarization.  The recycle fixed point
is solved directly from the chain on the carried qubits and checked by one
recycle cycle; the "residual" column is the largest relative move that
cycle gives an entry.  The asymptotic line is
tanh(m 2^(n-m-1) artanh(alpha)).

Too few rounds for the register can cool the target *below* the raw
polarization: at n=9, m=2, 5 rounds and alpha=0.1 the steady state reads
0.0547.  The last section shows this.

Run:  python demos/refrigerator_rounds.py
"""

from coolsign import (
    RefrigeratorConfig,
    alpha_infinity,
    build_uqr,
    marginal_targets,
    pairwise_sum,
    product_probs,
    steady_states,
)

N, M, ALPHA = 5, 2, 0.5

print(f"n={N}, m={M} reset qubits, reservoir polarization {ALPHA}")
print(f"asymptotic limit: {alpha_infinity(N, M, ALPHA):.10f}\n")

resets = product_probs(ALPHA, M)
vec = product_probs(ALPHA, N - M)
print("round-by-round target polarization (first cycle, fresh register):")
for rnd in range(1, 13):
    # fresh resets attached, the staircase applied, the resets traced out
    vec = pairwise_sum(build_uqr(N)((vec[:, None] * resets).ravel()).reshape(-1, 1 << M))
    print(f"  after round {rnd:2d}: {marginal_targets(vec):.8f}")

print("\nsteady state per configured round count (recycled operation):")
print(f"{'rounds':>7} {'alpha_qr':>12} {'residual':>9} {'qubit cost':>11}")
for rounds in (1, 2, 3, 5, 9, 20, 200):
    cfg = RefrigeratorConfig(N, M, rounds)
    result = steady_states(cfg, [ALPHA])[0]
    print(f"{rounds:7d} {result.alpha_enhanced:12.8f} {result.residual:9.1e} {cfg.cost:11d}")

print("\nBidirectionality: the same circuit run on a negative bias")
biases = (0.3, -0.3)
for alpha, result in zip(biases, steady_states(RefrigeratorConfig(N, M, 5), biases)):
    print(f"  alpha = {alpha:+.1f}  ->  alpha_qr = {result.alpha_enhanced:+.8f}")

print("\nToo few rounds for a large register cool below the raw value (alpha = 0.1):")
for rounds in (5, 9, 20):
    result = steady_states(RefrigeratorConfig(9, M, rounds), [0.1])[0]
    print(f"  n = 9, rounds = {rounds:2d}  ->  alpha_qr = {result.alpha_enhanced:.4f}")
