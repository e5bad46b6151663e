"""Is it worth spending qubits on cooling instead of shots?

Fix a total budget of fresh qubits.  Either measure them all directly
(budget shots at polarization alpha) or feed them through the refrigerator
and measure fewer, better qubits.  The exact binomial law and a seeded Monte
Carlo agree on the answer: cooling wins once the polarization is moderate.

Run:  python demos/shot_budget_comparison.py
"""

from coolsign import RefrigeratorConfig, resource_matched_comparisons, steady_states

CFG = RefrigeratorConfig(n=5, m=2, rounds=5)
BUDGET = 55  # 55 raw shots vs 5 cooled shots (cost m*rounds+1 = 11)
ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)

print(f"budget {BUDGET} fresh qubits; refrigerator {CFG.n} qubits, "
      f"{CFG.m} resets, {CFG.rounds} rounds (cost {CFG.cost}/shot)\n")
print(f"{'alpha':>6} {'alpha_qr':>10} {'raw err':>12} {'cooled err':>12} "
      f"{'mc raw':>9} {'mc cooled':>10} {'r_qr':>9}")
comparisons = resource_matched_comparisons(ALPHAS, steady_states(CFG, ALPHAS), CFG.cost, BUDGET,
                                           seed=1000, trials=200_000)
for rec in comparisons:
    print(f"{rec.alpha:6.1f} {rec.alpha_cooled:10.6f} {rec.exact_error_raw:12.3e} "
          f"{rec.exact_error_cooled:12.3e} {rec.mc_error_raw:9.5f} "
          f"{rec.mc_error_cooled:10.5f} {rec.reduction_factor:9.4f}")

print("\nAt low polarization the cooled side loses (r_qr < 1): the"
      "\nrefrigerator burns budget without enough gain.  From about"
      "\nalpha ~ 0.5 onward the cooled estimator is strictly better"
      "\nat this budget, and the advantage grows explosively with alpha.")
