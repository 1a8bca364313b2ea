import hashlib
import random

import pytest

from diffmod import quasimonic
from diffmod.errors import StructuralError
from diffmod.poly import Polynomial, Ring
from diffmod.quasimonic import (DivisionCertificate, QuasiMonic, delta_of,
                                reduce_by_tables, reduce_mod_powers,
                                remainder_tables)

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


def _random_cases():
    """(p, quasi-monic divisors, power) for 200 seeded cases over RYY."""
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
        yield p, qs, k


def test_certificates_random():
    for p, qs, k in _random_cases():
        cert = reduce_mod_powers(p, qs, k)   # verify() runs inside
        delta = delta_of(qs, RYY)
        assert cert.verify(p, qs, delta)
        for q in qs:
            assert cert.remainder.degree_in(q.var) < k * q.deg


def test_constant_delta_certificates_need_no_exact_division(monkeypatch):
    # a constant Delta scales the certificate once by Delta^-l; the digest
    # of the 200 certificates was recorded when a loop divided every
    # cofactor by Delta one power of l at a time.  The spy replaces the
    # name quasimonic calls; the non-constant cases do divide, which shows
    # that it sees the calls
    calls = []
    inner = quasimonic.poly_exact_div

    def spy(p, f):
        calls.append(f)
        return inner(p, f)

    monkeypatch.setattr(quasimonic, "poly_exact_div", spy)
    digest = hashlib.sha256()
    constant = divided = 0
    for p, qs, k in _random_cases():
        calls.clear()
        cert = reduce_mod_powers(p, qs, k)
        if delta_of(qs, RYY).is_constant():
            constant += 1
            assert not calls and cert.l == 0
        divided += len(calls)
        digest.update(("%d|%s|%s\n" % (cert.l, ";".join(h.text() for h in cert.cofactors),
                                       cert.remainder.text())).encode())
    assert constant == 86
    assert divided > 0
    assert digest.hexdigest() == (
        "8e89367e2f14e9d91878632e8da162dad36f8c31ecfecbb920ca5620fe5d1363")


def test_remainder_tables_match_reduce_mod_powers():
    # constant leads 3 and -2 in two graph variables, alone and together,
    # and their powers; one table set serves polynomials of decreasing and
    # then increasing exponent, so its entries grow on demand between uses
    y1, y2 = RYY.index("y1"), RYY.index("y2")
    q1 = QuasiMonic(P(RYY, "3*y1^2 - x1"), y1)
    q2 = QuasiMonic(P(RYY, "-2*y2^3 + x2*y2^2 - x1^2*y2 + 1"), y2)
    rng = random.Random(43)
    for k in (1, 2, 3):
        for qs in ([q1], [q2], [q1, q2]):
            tables = remainder_tables([QuasiMonic(q.poly ** k, q.var) for q in qs])
            for deg in (12, 9, 6, 3, 1, 0, 2, 5, 8, 11, 14):
                p = random_polynomial(rng, RYY, deg=deg, nterms=6, height=5) + P(
                    RYY, "y1^%d*y2^%d" % (deg, deg))
                want = reduce_mod_powers(p, qs, k).remainder
                assert Polynomial(RYY, reduce_by_tables(p.terms, tables)) == want
    assert reduce_by_tables(p.terms, {}) == p.terms
