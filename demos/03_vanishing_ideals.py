"""Vanishing ideals of stratified semialgebraic sets.

The running example is the level family E_a = {x^2 - z y^2 = 0, z <= a}.
For a < 0 the set degenerates to the ray x = y = 0, z <= a, and its ideal
is (x, y); for a > 0 the surface branches dominate and the ideal is the
principal ideal (x^2 - z y^2).  The engine computes both from stratum
descriptions alone.

Run:  python demos/03_vanishing_ideals.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from example1 import AMBIENT, negative_level_strata, positive_level_strata

from diffmod import Polynomial, Ring, ideal, module_equal
from diffmod.vanishing import Stratum, complexify, vanishing_ideal

# One stratum on its own: the branch of y^2 = x through (1, 1).  Its
# complexification is the irreducible curve, so the ideal is principal.
ring = Ring.make(nx=1, ny=1)
branch = Stratum(n=1, m=1, p=0, ring=ring,
                 anns_y=[Polynomial.parse(ring, "y1^2 - x1")],
                 witness=[1, 1])
print("I(branch of y^2 = x):", [g.text() for g in complexify(branch).gens])
print()

# The negative level: ray plus endpoint.  vanishing_ideal works in the
# ring of x1, x2, x3, which stand for x, y, z.
out = vanishing_ideal(negative_level_strata())
print("I(E_a), a < 0:", [g.text() for g in out.gens])
assert module_equal(out, ideal(AMBIENT, [Polynomial.parse(AMBIENT, "x1"),
                                         Polynomial.parse(AMBIENT, "x2")]))

# The positive level: twelve strata (branch surfaces, lines, points).
out = vanishing_ideal(positive_level_strata())
print("I(E_a), a > 0:", [g.text() for g in out.gens])
assert module_equal(out, ideal(AMBIENT,
                               [Polynomial.parse(AMBIENT, "x1^2 - x3*x2^2")]))
print()
print("both level ideals reproduced exactly")
