"""Solution modules of differential operators.

Three levels of generality:
  * polynomial coefficients on all of space (a linear-algebra recursion,
    the reference the test suite checks the pipeline against),
  * operators on a graph stratum (tangent frames eliminate x-derivatives,
    division by annihilator powers bounds the degrees),
  * stratified semialgebraic coefficients (the indicator-function bridge:
    the module of the operator P -> 1_E * P is exactly the vanishing
    ideal of E).

Run:  python demos/04_operator_modules.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from example1 import indicator_operator, negative_level_strata
from oracle import mclosure_poly_coeffs

from diffmod import Polynomial, Ring, ideal, module_equal
from diffmod.operators import (LinearDiffOp, build_tangent_frame,
                               eliminate_x_derivatives)
from diffmod.pipeline import graph_solution_module, main_mclosure
from diffmod.vanishing import Stratum

# Polynomial coefficients on R^1: L(f1, f2) = f1' - f2' forces P1 = P2.
r1 = Ring.make(nx=1)
L = LinearDiffOp(r1, 2, {((1,), 0): 1, ((1,), 1): -1})
basis = mclosure_poly_coeffs(L)
print("module of f1' - f2':", [g.text() for g in basis.gens])
print()

# A graph stratum: the parabola y = x^2.  For L = d_y the module is the
# square of the vanishing ideal: first derivatives see one jet level more.
ring = Ring.make(nx=1, ny=1)
parab = Stratum(n=1, m=1, p=0, ring=ring,
                anns_y=[Polynomial.parse(ring, "y1 - x1^2")], witness=[1, 1])
logs = []
basis = graph_solution_module(parab, LinearDiffOp(ring, 1, {((0, 1), 0): 1}), logs=logs)
print("module of d_y on the parabola:", [g.text() for g in basis.gens])
print("provenance:", "; ".join(logs))
print()

# Tangent frames rewrite x-derivatives into stratum-tangent fields.
sqrt_st = Stratum(n=1, m=1, p=0, ring=ring,
                  anns_y=[Polynomial.parse(ring, "y1^2 - x1")], witness=[1, 1])
frame = build_tangent_frame(sqrt_st)
print("Delta of the frame on y^2 = x:", frame.delta.text())
d, family = eliminate_x_derivatives(
    LinearDiffOp(ring, 1, {((1, 0), 0): 1}), frame)
print("rewrite of d_x: Delta^%d d_x = sum over %d pieces" % (d, len(family)))
for alpha, piece in sorted(family.items()):
    print("   X^%s o (%s)" % (alpha, piece.text().replace("\n", " | ")))
print()

# The indicator bridge: L = 1_E * f for the negative level set E; the
# module equals the ideal of polynomials vanishing on E.
res = main_mclosure(indicator_operator(negative_level_strata()))
print("module of the indicator operator:",
      [g.text() for g in res.basis.gens])
amb = res.basis.ring
assert module_equal(res.basis, ideal(amb, [Polynomial.variable(amb, 0),
                                           Polynomial.variable(amb, 1)]))
print("matches I(E) exactly")
