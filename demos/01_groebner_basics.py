"""Tour of the exact polynomial kernel: arithmetic, Groebner bases,
normal forms, syzygies, intersection, saturation, and the critical
exponent search.

Run:  python demos/01_groebner_basics.py
"""

from diffmod import (Polynomial, PolyVec, Ring, buchberger, critical_l, ideal,
                     intersect, normal_form, saturate, solve_inhomogeneous,
                     syzygy_module)

ring = Ring(("x", "y", "z"), "xxx")
parse = lambda s: Polynomial.parse(ring, s)

# Everything is exact rational arithmetic: no floats anywhere.
f = parse("x^2 - z*y^2")
g = parse("1/2*x + y")
print("f * g          =", (f * g).text())
print("d f / d y      =", f.diff(1).text())
print("f at (1,1,1)   =", f.evaluate([1, 1, 1]))
print()

# A Groebner basis makes ideal membership decidable: the normal form of a
# member is zero, and the normal form is canonical.
basis = buchberger(ideal(ring, [parse("x - y"), parse("y - z"), parse("z - 1")]))
print("GB of (x-y, y-z, z-1):")
for gen in basis.gens:
    print("   ", gen.text())
print("NF(x^3) =", normal_form(parse("x^3"), basis).text())
print()

# Syzygies: all relations among a list of generators.
syz = syzygy_module([parse("x"), parse("y")])
print("syzygies of (x, y):", [s.text() for s in syz.gens])

# Inhomogeneous solving: decide x*P1 + y*P2 = x^2 + y^2 and produce a P.
# A matrix is a list of its columns, here the 1-vectors (x) and (y).
columns = [PolyVec([parse("x")]), PolyVec([parse("y")])]
print("solve x*P1 + y*P2 = x^2+y^2:",
      solve_inhomogeneous(columns, [parse("x^2 + y^2")]).text())
print()

# Intersection and saturation.
inter = intersect(ideal(ring, [parse("x")]), ideal(ring, [parse("y")]))
print("(x) ∩ (y) =", [s.text() for s in inter.gens])
sat = saturate(ideal(ring, [parse("x*y")]), parse("x"))
print("(xy) : x^inf =", [s.text() for s in sat.gens])
print()

# The critical exponent: the chain M_l = {P : Delta^l * B P in col(A)}
# stabilizes; find the first stable index.
r1 = Ring(("t",), "x")
t = Polynomial.parse(r1, "t")
one = Polynomial.one(r1)
l0, module = critical_l([PolyVec([t * t])], [PolyVec([one])], t)
print("critical l for (A=[t^2], B=[1], Delta=t):", l0)
print("stable module:", [s.text() for s in module.gens])
