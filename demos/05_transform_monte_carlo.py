# The integral transform: exact coefficient model vs Monte Carlo sampling.
#
# On coefficients the transform is an exact isometry.  The sampling model
# replaces the limiting measure by Haar at a finite level m: at level one
# the phase integrals have closed forms and the estimator reproduces them.
# At level m the squared norm of u^alpha is exactly (m-1)! alpha!/(m-1+n)!
# with n = |alpha| (Rudin 1980, section 1.4), and the weight w_norm_sq of a
# diagram is this value at m = its length; the study below shows both.


import math

from focklab import EVector, TruncationSpec
from focklab.hardy_chi import (
    HardyChiFunction,
    closed_form_level_one,
    f_transform,
    mc_f_transform,
    norm_convergence_study,
)
from focklab.hardy_w import evaluate
from focklab.partitions import BasisKey, w_norm_sq

spec = TruncationSpec(6, 3)
x = EVector((0.6 - 0.35j, 0.0, 0.0))

print("=== level-one closed forms ===")
for k in range(3):
    key = BasisKey.vacuum() if k == 0 else BasisKey.make((k,), (1,))
    f = HardyChiFunction.basis(spec, key)
    est = mc_f_transform(f, x, level=1, samples=100000, seed=40 + k)
    exact = closed_form_level_one(key, x)
    print(f"  key {key.label():<16} estimate {est.estimate:+.4f}"
          f"  closed form {exact:+.4f}  z = {est.z_against(exact):.2f}")

print()
print("=== the error-halving law ===")
prev = None
for samples in (12500, 25000, 50000, 100000):
    est = mc_f_transform(HardyChiFunction.constant(spec), x, 1, samples, seed=50)
    ratio = "" if prev is None else f"  ratio {est.stderr / prev:.3f} (~0.707)"
    print(f"  {samples:>7} samples: stderr {est.stderr:.5f}{ratio}")
    prev = est.stderr

print()
print("=== finite-level norms vs the exact level value ===")
for key in (BasisKey.make((1,), (1,)), BasisKey.make((2,), (1,))):
    rows = norm_convergence_study(key, (1, 2, 4, 8), samples=50000, seed=60)
    n = key.degree()
    print(f"  key {key.label()}  (weight {float(w_norm_sq(key.diagram))}, the level-1 value):")
    for row in rows:
        m = row["level"]
        exact = math.factorial(m - 1) * key.diagram.factorial() / math.factorial(m - 1 + n)
        print(f"    level {m}: empirical {row['empirical']:.4f}"
              f" +- {row['stderr']:.4f}  exact (m-1)! alpha!/(m-1+n)! = {exact:.4f}")

print()
print("=== exact model value for comparison ===")
f = HardyChiFunction.basis(spec, BasisKey.make((2,), (1,)))
print("  coefficient-model transform at the same point:",
      evaluate(f_transform(f, 'w'), x))
print("  (matches the level-one closed form here because single-row keys")
print("   carry weight constant one)")
