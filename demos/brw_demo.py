"""The dominating branching random walk: martingale decay and survival.

The exponentially weighted population S_n has mean alpha^n exactly; the
probability that the shifted process still holds a particle above level 0
at generation n is at most alpha^n * E(e^(mu*C)).  Both are checked here
by simulation.
"""

import math

from lipsurf.brw import OffspringLaw, brw_tables

law = OffspringLaw(d=2, p=0.99, mu=math.log(2))
RUNS = 5000
print(f"offspring transform alpha = {law.alpha():.7f} "
      f"(depth cap {law.depth_cap} removes {law.cap_remainder():.2e})")
print()
mart, surv = brw_tables(law, 8, RUNS, master_seed=3)

print("martingale: empirical mean of S_n vs alpha^n")
print("   n  mean_S        alpha^n       exact SE")
for row in mart:
    se = law.mean_standard_error(row.n, RUNS)
    print(f"  {row.n:>2}  {row.mean_s:<12.3e}  {row.alpha_pow:<12.3e}  {se:.3e}")
print()

print("survival above level 0 (shifted run) vs the Markov bound")
print("   n  frequency   bound")
for row in surv[:7]:
    print(f"  {row.n:>2}  {row.frequency:<9.5f}  {row.bound:.3e}")
