"""Division with remainder by powers of quasi-monic polynomials.

A quasi-monic divisor a(x) * y^D + ... is monic only after inverting
a(x); the division tracks the powers of Delta = prod a_mu it incurs and
returns a verified certificate  Delta^l P = sum H_mu * Q_mu^K + P#
with per-variable remainder bounds deg_{y_mu} P# < K * D_mu.

Run:  python demos/05_quasimonic_division.py
"""

from diffmod import Polynomial, Ring
from diffmod.quasimonic import QuasiMonic, delta_of, reduce_mod_powers

ring = Ring.make(nx=1, ny=2)
parse = lambda s: Polynomial.parse(ring, s)

q1 = QuasiMonic(parse("x1*y1 + x1 + 1"), ring.index("y1"))
q2 = QuasiMonic(parse("y2^2 - x1"), ring.index("y2"))
print("divisors:", q1.poly.text(), "|", q2.poly.text())
print("Delta  = ", delta_of([q1, q2], ring).text())
print()

p = parse("y1^2*y2^2 + x1*y1 - y2 + 3")
cert = reduce_mod_powers(p, [q1, q2], 1)
print("dividing", p.text())
print("  l        =", cert.l)
for i, h in enumerate(cert.cofactors):
    print("  H_%d      = %s" % (i + 1, h.text()))
print("  remainder =", cert.remainder.text())
# the certificate verified itself on construction; re-check by expansion
lhs = delta_of([q1, q2], ring) ** cert.l * p
rhs = cert.remainder + cert.cofactors[0] * q1.poly + cert.cofactors[1] * q2.poly
assert lhs == rhs
print("  identity re-expands exactly")
