"""Assembling and probing the matrix weight on the sector.

Evaluates the factor matrix L(u), the diagonal constants d1, d2, and the
assembled weight K at several angles, then checks the two structural facts
that make the weight usable: its determinant is constant over the sector
(with an explicit cosine closed form) and it is positive definite inside
the admissible parameter region.
"""

import math

import numpy as np

from b2weight import ParamPoint, c_norm, d_consts, eval_K, eval_L
from b2weight.weight import det_k_closed_form

p = ParamPoint(0.3, 0.1)
print("=" * 72)
print(f"matrix weight at (k0, k1) = ({p.k0}, {p.k1})")
print(f"integrable: {p.integrable}, positive definite: {p.positive_definite}")
print("=" * 72)

print(f"\nnormalization constant c = {c_norm(p):.15f}")
d1, d2 = d_consts(p)
print(f"diagonal constants d1 = {d1:.15f}, d2 = {d2:.15f}")

print("\nweight matrix along the sector:")
print(f"  {'theta':>6}  {'K11':>10}  {'K12':>10}  {'K22':>10}  {'det K':>12}  {'min eig':>10}")
for theta in (0.1, 0.3, 0.5, 0.7):
    ev = eval_K(theta, p)
    eigs = np.linalg.eigvalsh(ev.K)
    print(f"  {theta:>6.2f}  {ev.K[0,0]:>10.6f}  {ev.K[0,1]:>10.6f}  "
          f"{ev.K[1,1]:>10.6f}  {ev.det_k:>12.9f}  {eigs.min():>10.6f}")

print(f"\nclosed-form determinant cos(pi(k0+k1)) cos(pi(k0-k1)) / (4 pi^2):")
print(f"  {det_k_closed_form(p):.15f}  (constant in theta, as the table shows)")

u = 0.5
ell = eval_L(u, p)
print(f"\nfactor matrix L at u = {u}:")
print(f"  [{ell[0,0]:+.9f}  {ell[0,1]:+.9f}]")
print(f"  [{ell[1,0]:+.9f}  {ell[1,1]:+.9f}]")
print(f"  |det L| = {abs(np.linalg.det(ell)):.12f}  (unimodular)")

print("\nnear the positive-definiteness boundary the smallest eigenvalue "
      "shrinks but stays positive:")
for k in (0.20, 0.24, 0.245, 0.2495):
    ev = eval_K(0.4, ParamPoint(k, k))
    print(f"  k0 = k1 = {k:<7}: min eigenvalue = "
          f"{np.linalg.eigvalsh(ev.K).min():.6f}")
