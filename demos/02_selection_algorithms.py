"""The four column selection algorithms side by side on a Kahan matrix.

Kahan's triangular matrix is the classic input on which greedy column
pivoting overestimates the smallest singular value.  Deflation from the
back (b1), the leverage-style selector (b3) and the strong rank-revealing
swaps (srrqr) all locate the near-dependent column; the forward greedy
selector (b4) does not, which shows up in its gamma2.
"""
import numpy as np

from cssident import (
    SrrqrConfig,
    compute_metrics,
    css_b1,
    css_b3,
    css_b4,
    css_srrqr,
    gen_kahan,
    svd,
    theorem_bound_checks,
)

n, zeta = 24, 0.9
k = n - 1
chi = gen_kahan(n, zeta)
chi_svd = svd(chi)
sigma = chi_svd.sigma
print(f"Kahan matrix, n = {n}, zeta = {zeta}")
print(f"sigma_1 = {sigma[0]:.3e}, sigma_k = {sigma[k-1]:.3e}, "
      f"sigma_n = {sigma[-1]:.3e}\n")

results = {
    "b1": css_b1(chi, k),
    "b4": css_b4(chi, k),
    "b3": css_b3(chi, k, chi_svd=chi_svd),
    "srrqr": css_srrqr(chi, k, SrrqrConfig(f=1.0)),
}

print(f"{'algorithm':<8} {'gamma1':>10} {'gamma2':>12} {'tau':>12} "
      f"{'rejected':>9} {'swaps':>6}")
for name, res in results.items():
    rec = compute_metrics(chi, chi_svd, res)
    tau = f"{rec.tau:.3e}" if rec.tau is not None else "undef"
    print(f"{name:<8} {rec.gamma1:>10.4f} {rec.gamma2:>12.4g} {tau:>12} "
          f"{str(list(res.unidentifiable)):>9} {res.swap_count:>6}")

print("\naccuracy guarantees, checked on the srrqr result:")
for check in theorem_bound_checks(chi_svd, results["srrqr"]):
    mark = "ok " if check.satisfied else "VIOLATED"
    print(f"  {mark} {check.name}: lhs = {check.lhs:.4e}, rhs = {check.rhs:.4e}")
