"""The asymptotic side of the verification.

The normalized terminating sums f_i(n) n^k1 Gamma(1+k1)/Gamma(1+2k1) are
trapped between ratios of rising products by an exact ordering argument,
and they converge to 1 precisely because the normalization constant carries
the factor cos(pi k0) cos(pi k1) / (2 pi).
"""

from fractions import Fraction

from b2weight import asym_f_check, squeeze_check

print("=" * 72)
print("normalized terminating sums approach 1:")
print("=" * 72)
print(f"  {'n':>5} {'(0.3, 0.1)':>22} {'(-0.2, 0.25)':>22}")
for n in (100, 400, 1600, 6400):
    a = asym_f_check(n, 0.3, 0.1)
    b = asym_f_check(n, -0.2, 0.25)
    print(f"  {n:>5} {a[0]:>10.6f} {a[1]:>10.6f}  {b[0]:>10.6f} {b[1]:>10.6f}")

print("\nexact squeeze ordering (rational arithmetic, no rounding):")
k0, k1 = Fraction(3, 10), Fraction(1, 10)
a, b, c = Fraction(1, 2) + k1 + k0, Fraction(-1, 2) + k1 - k0, -k1
for n in (5, 20, 50):
    rep = squeeze_check(n, a, b, c)
    lo, mid, hi = sorted((rep.plain_sum, rep.middle, rep.shifted_sum))
    print(f"  n={n:>2} branch {rep.branch}: "
          f"{float(lo):.9f} <= {float(mid):.9f} <= {float(hi):.9f} "
          f"({'holds' if rep.chain_holds else 'VIOLATED'})")
