import random

import pytest

from diffmod.errors import StructuralError
from diffmod.poly import Polynomial, Ring
from diffmod.quasimonic import (DivisionCertificate, QuasiMonic, delta_of,
                                reduce_mod_powers)

from conftest import random_polynomial

RY = Ring.make(nx=1, ny=1)            # x1; y1
RYY = Ring.make(nx=2, ny=2)           # x1 x2; y1 y2


def P(ring, s):
    return Polynomial.parse(ring, s)


def test_reduce_single_quasimonic_hand_example():
    # a(x) y + b(x) dividing y^2: a^2 y^2 = (a y + b)(a y - b) + b^2
    ring = RY
    a = P(ring, "x1")
    b = P(ring, "x1 + 1")
    y = P(ring, "y1")
    qm = QuasiMonic(a * y + b, ring.index("y1"))
    cert = reduce_mod_powers(y * y, [qm], 1)
    assert cert.l == 2
    assert cert.cofactors[0] == a * y - b
    assert cert.remainder == b * b


def test_reduce_exact_divisibility():
    ring = RY
    qm = QuasiMonic(P(ring, "x1*y1^2 + y1 - x1"), ring.index("y1"))
    cert = reduce_mod_powers(qm.poly, [qm], 1)
    assert cert.l == 0
    assert cert.cofactors[0] == Polynomial.one(ring)
    assert cert.remainder.is_zero()


def test_reduce_already_reduced():
    ring = RY
    qm = QuasiMonic(P(ring, "y1^2 - x1"), ring.index("y1"))
    p = P(ring, "x1^3")
    cert = reduce_mod_powers(p, [qm], 2)
    assert cert.l == 0
    assert cert.cofactors[0].is_zero()
    assert cert.remainder == p


def test_reduce_duplicate_variable_rejected():
    ring = RY
    qm = QuasiMonic(P(ring, "y1^2 - x1"), ring.index("y1"))
    with pytest.raises(StructuralError):
        reduce_mod_powers(P(ring, "y1"), [qm, qm], 1)


def test_certificates_random():
    rng = random.Random(41)
    yidx = [RYY.index("y1"), RYY.index("y2")]
    for _ in range(200):
        m = rng.randint(1, 2)
        k = rng.randint(1, 2)
        qs = []
        for mu in range(m):
            d = rng.randint(1, 3)
            lead = Polynomial.zero(RYY)
            while lead.is_zero():
                lead = random_polynomial(rng, RYY, deg=1, nterms=2, height=3)
                lead = Polynomial(RYY, {mm: c for mm, c in lead.terms.items()
                                        if mm[yidx[0]] == 0 and mm[yidx[1]] == 0})
            y = Polynomial.variable(RYY, yidx[mu])
            tail = random_polynomial(rng, RYY, deg=2, nterms=3, height=3)
            tail = Polynomial(RYY, {mm: c for mm, c in tail.terms.items()
                                    if mm[yidx[mu]] < d and mm[yidx[1 - mu]] == 0})
            qs.append(QuasiMonic(lead * y ** d + tail, yidx[mu]))
        p = random_polynomial(rng, RYY, deg=4, nterms=5, height=5)
        cert = reduce_mod_powers(p, qs, k)   # verify() runs inside
        delta = delta_of(qs, RYY)
        assert cert.verify(p, qs, delta)
        for q in qs:
            assert cert.remainder.degree_in(q.var) < k * q.deg
