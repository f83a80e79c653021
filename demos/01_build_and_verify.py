"""Build a zero-weight dynamical matrix from a classification datum and
verify the shifted consistency equations numerically.

Run:  python3 demos/01_build_and_verify.py
"""

import numpy as np

from dynrmat import (
    BlockConstants,
    ClassificationParams,
    DeltaClass,
    IndexPartition,
    build,
    check_invertibility,
    check_system,
    evaluate,
    normalize_f,
    sample_lambda,
)

# A datum is: an index partition (blocks of exchange classes, each class a
# mix of free indices and multi-index d-classes), per-block sum/determinant
# constants, a sign and a position constant per d-class, and an optional
# 2-form acting on the off-diagonal coefficients.
partition = IndexPartition(
    n=4, blocks=((DeltaClass(free=(1, 2), d_classes=((3, 4),)),),)
)
params = ClassificationParams(
    partition=partition,
    per_block=(BlockConstants(0j, 1 + 0j),),       # sum 0, determinant 1
    signs={(1,): 1, (2,): 1, (3, 4): -1},
    f_consts={(1,): 0j, (2,): 0j, (3, 4): 0j},
)
params, _ = normalize_f(params)

R = build(partition, params)

lam = np.array([1.0, 2.0, 0.5, 0.25], dtype=complex)
point = evaluate(R, lam)
print(f"matrix size: {point.matrix.shape}, nonzeros: {(point.matrix != 0).sum()}")
print(f"exchange(1,2) at {lam.real.tolist()}: {R.delta(1, 2, lam):.6g}")
print(f"diagonal(1,2) at {lam.real.tolist()}: {R.d(1, 2, lam):.6g}")

rng = np.random.default_rng(0)
samples = sample_lambda(R, rng, 8)
report = check_system(R, samples=samples, tol=1e-9)
print(f"\nconsistency system passed: {report.passed}")
print(f"worst equation: {report.worst_case.equation} "
      f"residual {report.worst_case.value:.3e}")
for tag in sorted(report.per_equation):
    print(f"  {tag}: {report.per_equation[tag]:.3e}")

inv = check_invertibility(R, samples[0])
print(f"\nno determinant factor is zero (no Delta_ii, no plane determinant): {inv['agree']}")
print(f"det = {inv['det_factorized']:.6g}")
