"""Three independent routes to the coefficient sequences alpha_n, beta_n.

The sequences are defined through sector pairings of phi^(2n) p12 and
phi^(2n+1) p14 against the degree-1 carrier p12.  This script computes them

  1. by the two-term recurrence,
  2. by the single-sum closed forms,
  3. by brute-force operator calculus: iterating the modified Laplacian on
     the polynomials themselves until only a multiple of p12 survives,

and shows that all three agree exactly as polynomials in Q[k0, k1].
"""

from fractions import Fraction

from b2weight import (
    alpha_beta_recurrence,
    alpha_beta_via_laplacian,
    alpha_closed,
    beta_closed,
)
from b2weight.vpoly import alpha_prime_scale, beta_prime_scale

N_MAX = 4

print("=" * 72)
print("coefficient sequences: recurrence vs closed form vs operator calculus")
print("=" * 72)

seq = alpha_beta_recurrence(N_MAX)

print("\nsymbolic values from the recurrence:")
for n in range(N_MAX + 1):
    print(f"  alpha_{n} = {seq.alpha[n]}")
    print(f"  beta_{n}  = {seq.beta[n]}")

print("\nclosed forms match the recurrence exactly:")
for n in range(N_MAX + 1):
    ok_a = seq.alpha[n] == alpha_closed(n)
    ok_b = seq.beta[n] == beta_closed(n)
    print(f"  n={n}: alpha {'==' if ok_a else '!='} closed, "
          f"beta {'==' if ok_b else '!='} closed")

print("\noperator route (iterated Laplacians, exact rational arithmetic):")
for n in range(N_MAX + 1):
    alpha_scaled, beta_scaled = alpha_beta_via_laplacian(n)
    ok_a = alpha_scaled == seq.alpha[n] * alpha_prime_scale(n)
    ok_b = beta_scaled == seq.beta[n] * beta_prime_scale(n)
    print(f"  n={n}: scale 2^(4n)(2n)!(2n+1)! = {alpha_prime_scale(n)}, "
          f"alpha {'OK' if ok_a else 'MISMATCH'}, beta {'OK' if ok_b else 'MISMATCH'}")

k0, k1 = Fraction(3, 10), Fraction(1, 10)
at_point = alpha_beta_recurrence(N_MAX, k0, k1)  # the same recurrence, run in Q
print(f"\nnumeric table at (k0, k1) = ({k0}, {k1}):")
print(f"  {'n':>2}  {'alpha_n':>12}  {'beta_n':>12}")
for n in range(N_MAX + 1):
    a, b = at_point.alpha[n], at_point.beta[n]
    print(f"  {n:>2}  {str(a):>12}  {str(b):>12}")
