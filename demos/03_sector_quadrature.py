"""The quadrature route to the sector pairings, against the exact values.

The pairing of phi^(2n) p12 (and phi^(2n+1) p14) with p12 over the plane
Gaussian reduces to one singular integral over the sector of the unit
circle.  With the weight normalized by c = cos(pi k0) cos(pi k1) / (2 pi),
the numeric integrals must land on the exact rational closed forms; this is
the check that pins the constant, since any other normalization would scale
every row of the table away from its exact value.
"""

from fractions import Fraction

from b2weight import ParamPoint, s_inner_closed, sector_inner_numeric

print("=" * 72)
print("sector quadrature vs exact closed forms")
print("=" * 72)

for k0, k1 in [(0.3, 0.1), (-0.2, 0.25), (0.45, 0.0)]:
    p = ParamPoint(k0, k1)
    q0, q1 = Fraction(str(k0)), Fraction(str(k1))
    print(f"\n(k0, k1) = ({k0}, {k1})")
    print(f"  {'n':>2} {'kind':>5} {'quadrature':>20} {'exact':>20} {'rel err':>10}")
    for n in range(4):
        for kind in ("p12", "p14"):
            num = sector_inner_numeric(n, kind, p, tol=1e-9)
            exact = float(s_inner_closed(n, kind, q0, q1))
            rel = abs(num.value - exact) / abs(exact)
            print(f"  {n:>2} {kind:>5} {num.value:>20.14f} {exact:>20.14f} {rel:>10.2e}")

print("\ncross-check: the factored route against the raw matrix route")
p = ParamPoint(0.3, 0.1)
for n in (0, 1):
    fast = sector_inner_numeric(n, "p12", p, tol=1e-9, mode="h")
    raw = sector_inner_numeric(n, "p12", p, tol=1e-9, mode="direct")
    print(f"  n={n}: factored {fast.value:.12f} ({fast.nodes} nodes), "
          f"raw {raw.value:.12f} ({raw.nodes} nodes), "
          f"difference {abs(fast.value - raw.value):.2e}")
