# Haar sampling, corner projections, and virtual unitaries.
#
# Unitaries are drawn by orthonormalising the columns of complex Gaussian
# matrices with Gram-Schmidt, run twice per column over a whole batch at once.
# That gives the Q of the QR factorisation whose R has a positive diagonal,
# i.e. LAPACK's QR with the phases of the R-diagonal fixed, which is exactly
# Haar distributed.  The corner map sends a unitary of size m+1 to one of
# size m; iterating it below a fixed top matrix yields the stabilised
# sequences ("virtual unitaries") and the projected matrices are distributed
# exactly like direct Haar samples one size down.

import numpy as np

from focklab.unitary_haar import (
    embed_stabilized,
    haar_moment_report,
    haar_sample,
    livsic_project,
    pushforward_consistency,
    right_action,
    sample_moments,
    unitarity_defect,
)

rng = np.random.default_rng(0)

print("=== sampler moments at size 3 (200k samples) ===")
report = haar_moment_report(3, 200000, seed=42)
for moment in report["moments"]:
    print(f"  {moment['name']:<14} empirical {moment['empirical']:+.5f}"
          f"  exact {moment['exact']:+.5f}  z = {moment['z']:+.2f}")

print()
print("=== one corner projection, explicitly ===")
u = haar_sample(4, rng)
v = livsic_project(u)
print("  input size 4, output size 3, unitarity defect:", unitarity_defect(v))

print()
print("=== a stabilised chain below a size-4 top ===")
chain = embed_stabilized(u)
for k in (3, 2, 1):
    defect = unitarity_defect(chain.level(k))
    print(f"  level {k}: unitary (defect {defect:.1e})")
print("  level 6 repeats the top inside an identity frame:",
      np.allclose(chain.level(6)[:4, :4], u))

print()
print("=== the right action by the pair (v, w) ===")
g = haar_sample(3, rng)
emb = embed_stabilized(g)
acted = right_action(emb, g, g, 3)
print("  acting with the embedding pair reproduces the matrix:",
      np.abs(acted.level(3) - g).max())

print()
print("=== pushforward consistency: project Haar(4) vs draw Haar(3) ===")
push = pushforward_consistency(3, 200000, seed=7)
for moment in push["moments"]:
    print(f"  {moment['name']:<14} projected {moment['projected']:+.5f}"
          f"  direct {moment['direct']:+.5f}  z = {moment['z']:+.2f}")
print("  branch events:", push["branch_events"],
      " worst defect:", f"{push['worst_defect']:.1e}")

print()
print("=== determinism: chunked substreams, any worker count ===")
one = sample_moments(2, 50000, seed=5, workers=1)[0]["abs_u11_sq"].mean
two = sample_moments(2, 50000, seed=5, workers=2)[0]["abs_u11_sq"].mean
print("  workers=1 vs workers=2 estimate difference:", abs(one - two), "(bitwise equal)")
