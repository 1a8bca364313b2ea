"""Division with remainder by powers of quasi-monic polynomials.

A quasi-monic polynomial has the shape a(x) * w^D + lower w-degree
terms, where w is a single distinguished variable and a(x) is a nonzero
polynomial in the base variables.  Division by its powers is
pseudo-division: every elimination step multiplies through by the
leading coefficient, the incurred exponents are normalized to a single
power of Delta = prod a_mu at the end, and every certificate is
verified by exact re-expansion before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import DomainError, StructuralError
from .groebner import poly_exact_div
from .poly import Polynomial


def coeff_in_var(p, var, k):
    """Coefficient of var^k in p, as a polynomial not involving var."""
    terms = {}
    for m, c in p.terms.items():
        if m[var] == k:
            m2 = m[:var] + (0,) + m[var + 1:]
            terms[m2] = terms.get(m2, Fraction(0)) + c
    return Polynomial(p.ring, terms)


@dataclass(frozen=True)
class QuasiMonic:
    """a(x) * w^D + (lower w-degree terms), a nonzero, D >= 1."""

    poly: Polynomial
    var: int

    def __post_init__(self):
        if self.poly.is_zero():
            raise StructuralError("quasi-monic polynomial must be nonzero")
        if self.poly.degree_in(self.var) < 1:
            raise StructuralError("polynomial does not involve its distinguished variable")

    @cached_property
    def deg(self):
        return self.poly.degree_in(self.var)

    @cached_property
    def lead(self):
        return coeff_in_var(self.poly, self.var, self.deg)


def delta_of(qs, ring=None):
    """Product of the leading coefficients."""
    if not qs:
        if ring is None:
            raise StructuralError("need a ring for an empty product")
        return Polynomial.one(ring)
    d = Polynomial.one(qs[0].poly.ring)
    for q in qs:
        d = d * q.lead
    return d


@dataclass
class DivisionCertificate:
    """Delta^l * P = sum_mu cofactor_mu * qm_mu^power + remainder, exactly."""

    l: int
    cofactors: list
    remainder: Polynomial
    power: int

    def verify(self, p, qs, delta):
        lhs = (delta ** self.l) * p
        rhs = self.remainder
        for h, q in zip(self.cofactors, qs):
            rhs = rhs + h * (q.poly ** self.power)
        if lhs != rhs:
            raise DomainError("division certificate identity failed")
        for q in qs:
            if self.remainder.degree_in(q.var) >= self.power * q.deg:
                raise DomainError("remainder degree bound violated")
        return True


def _pseudo_divide_power(p, qm, k):
    """lead^e * p = h * qm.poly^k + r with deg_var(r) < k*deg; lead = a^k."""
    ring = p.ring
    var = qm.var
    divisor = qm.poly ** k
    dd = k * qm.deg
    lead = qm.lead ** k
    h = Polynomial.zero(ring)
    r = p
    e = 0
    while True:
        d = r.degree_in(var)
        if d < dd:
            return e, h, r
        c = coeff_in_var(r, var, d) * Polynomial.monomial(
            ring, tuple(d - dd if i == var else 0 for i in range(ring.nvars)))
        h = h * lead + c
        r = r * lead - c * divisor
        e += 1


def reduce_mod_powers(p, qs, k):
    """Verified certificate Delta^l * p = sum H_mu * qm_mu^k + remainder,
    with per-variable remainder bounds deg_{w_mu}(remainder) < k * D_mu."""
    if k < 1:
        raise StructuralError("power must be positive")
    ring = p.ring
    dist = set()
    for q in qs:
        if q.var in dist:
            raise StructuralError("duplicate distinguished variable")
        dist.add(q.var)
    for q in qs:
        if q.lead.vars_used() & dist:
            raise StructuralError("leading coefficient involves a distinguished variable")
    delta = delta_of(qs, ring)

    cof = [Polynomial.zero(ring) for _ in qs]
    exps = [0] * len(qs)
    r = p
    for i, q in enumerate(qs):
        e, h, r = _pseudo_divide_power(r, q, k)
        if e:
            factor = q.lead ** (e * k)
            for j in range(i):
                cof[j] = cof[j] * factor
        cof[i] = h
        exps[i] = e * k

    l = max(exps, default=0)
    fill = Polynomial.one(ring)
    for q, e in zip(qs, exps):
        if l - e:
            fill = fill * q.lead ** (l - e)
    if not (fill == Polynomial.one(ring)):
        cof = [h * fill for h in cof]
        r = r * fill

    # drop unnecessary Delta powers incurred by pseudo-division steps that
    # turned out to divide exactly; a constant Delta divides them all
    if delta.is_constant():
        s = 1 / delta.constant_value() ** l
        cof, r, l = [h * s for h in cof], r * s, 0
    while l > 0:
        try:
            cof2 = [poly_exact_div(h, delta) if not h.is_zero() else h for h in cof]
            r2 = poly_exact_div(r, delta) if not r.is_zero() else r
        except DomainError:
            break
        cof, r, l = cof2, r2, l - 1

    cert = DivisionCertificate(l=l, cofactors=cof, remainder=r, power=k)
    cert.verify(p, qs, delta)
    return cert


def remainder_tables(qs):
    """{var: (D, low, table)} for quasi-monic q = c*w^D + r with a
    constant lead c, each in its own variable w.  `low` holds the
    (shift, coefficient) pairs of -r/c, which w^D equals modulo q.
    Entry e of a table lists the (shift, coefficient) pairs that turn w^e
    into its remainder mod q; `reduce_by_tables` appends entries as the
    terms it reduces need them."""
    tables = {}
    for q in qs:
        v, d, s = q.var, q.deg, -1 / q.lead.constant_value()
        n = q.poly.ring.nvars
        low = [(tuple(a - d * (i == v) for i, a in enumerate(m)), c * s)
               for m, c in q.poly.terms.items() if m[v] < d]
        tables[v] = (d, low, [[((0,) * n, Fraction(1))]])
    return tables


def reduce_by_tables(terms, tables):
    """Remainder of the polynomial with `terms` {monomial: coefficient}
    modulo the quasi-monic polynomials of `remainder_tables`, as such a
    dict; the variables reduce one after the other.  Entry e of a table
    is w times entry e - 1, with w^D replaced by `low`."""
    for v, (d, low, table) in tables.items():
        top = max((m[v] for m in terms), default=0)
        for e in range(len(table), top + 1):
            nxt = {}
            for shift, c in table[-1]:
                if shift[v] + e < d:
                    nxt[shift] = nxt.get(shift, 0) + c
                    continue
                for s2, c2 in low:
                    k = tuple(map(add, shift, s2))
                    nxt[k] = nxt.get(k, 0) + c * c2
            table.append([(k, c) for k, c in nxt.items() if c])
        out = {}
        for m, c in terms.items():
            for shift, c2 in table[m[v]]:
                k = tuple(map(add, m, shift))
                out[k] = out.get(k, 0) + c * c2
        terms = {k: c for k, c in out.items() if c}
    return terms
