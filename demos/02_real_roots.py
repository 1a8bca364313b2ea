"""The real-root oracle: Sturm root counts, exact isolation, refinement,
and bounded rational witness search inside sign-condition sets.

Run:  python demos/02_real_roots.py
"""

from fractions import Fraction

from diffmod import Polynomial, Ring
from diffmod.realroots import (SemialgebraicDescription, SignCondition,
                               find_witness_point, isolate_real_roots,
                               sign_variations_at, sturm_chain_dense)

ring = Ring(("x",), "x")
parse = lambda s: Polynomial.parse(ring, s)

# The Sturm chain of x^3 - x, on dense coefficients (low degree first):
# the drop in sign variations counts the distinct real roots in (lo, hi].
chain = sturm_chain_dense([Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])
print("Sturm chain of x^3 - x:", [[str(c) for c in link] for link in chain])
for lo, hi in ((-2, 2), (0, 2), (Fraction(1, 2), 2)):
    print("   roots in (%s, %s]:" % (lo, hi),
          sign_variations_at(chain, lo) - sign_variations_at(chain, hi))
print()

# Isolation reports rational roots exactly and irrational ones as intervals
# on which the square-free part changes sign.  A rational root is k/lead
# for an integer k, so a Sturm cell narrowed below 1/lead holds a single
# candidate; no divisor of any coefficient is ever enumerated.
for text in ("x^2 - x", "x^2 - 2", "x^2 + 1", "x^3 - 2*x^2 - x + 2",
             "1000000007*x - 1000000000039"):
    q = parse(text)
    print("roots of %-30s" % text, [str(iv) for iv in isolate_real_roots(q)])
print()

# Given a width, isolation refines each interval below it by bisection,
# preserving the sign change.
narrow = [i for i in isolate_real_roots(parse("x^2 - 2"), Fraction(1, 10 ** 9))
          if i.lower > 0][0]
print("sqrt(2) to width 1e-9:", narrow)
print()

# Witness search: a verified rational point in a semialgebraic set,
# avoiding the zero sets of extra polynomials.  The set is a union of
# clauses, here one clause of two sign conditions that must both hold.
ring2 = Ring(("u", "v"), "xx")
u = Polynomial.variable(ring2, "u")
v = Polynomial.variable(ring2, "v")
desc = SemialgebraicDescription(
    ((SignCondition(u * u + v * v - 1, "<"), SignCondition(u, ">")),), 2)
point = find_witness_point(desc, avoid=[u - v])
print("point in the right half-disc off the diagonal:", point)
