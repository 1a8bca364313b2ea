"""Exact real-root isolation for univariate rational polynomials, sign
conditions on semialgebraic sets, and bounded rational witness search.

Univariate work happens on dense coefficient lists (low degree first).
Every root is found by one Sturm bisection.  Rational roots come first:
a rational root of the square-free integer part q is k/lead(q) for an
integer k (rational root theorem), so each Sturm cell of q, narrowed
below 1/lead(q), holds exactly one candidate, which is tested by exact
evaluation.  The rational roots are then divided out of q, and the
quotient is bisected again into isolating intervals, each bracketing a
sign change.  Rational roots are always reported as exact points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .errors import DomainError, StructuralError
from .poly import Polynomial


# -- dense univariate helpers -------------------------------------------

def _strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _deg(c):
    return len(c) - 1


def _dense(p):
    """Dense coefficients of a univariate Polynomial or coefficient list."""
    if not isinstance(p, Polynomial):
        return _strip([Fraction(v) for v in p])
    used = p.vars_used()
    if len(used) > 1:
        raise StructuralError("polynomial is not univariate")
    var = used.pop() if used else 0
    coeffs = [Fraction(0)] * (p.degree_in(var) + 1 if not p.is_zero() else 1)
    for m, c in p.terms.items():
        coeffs[m[var]] = c
    return _strip(coeffs)


def _eval(c, x):
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _derive(c):
    return _strip([c[i] * i for i in range(1, len(c))])


def _neg(c):
    return [-a for a in c]


def _divmod(a, b):
    """(quotient, remainder) of a by b, by long division."""
    q = [Fraction(0)] * (max(_deg(a) - _deg(b), -1) + 1)
    a = list(a)
    db, lb = _deg(b), b[-1]
    while a and _deg(a) >= db:
        f = a[-1] / lb
        shift = _deg(a) - db
        q[shift] = f
        for i, bc in enumerate(b):
            a[i + shift] -= f * bc
        a = _strip(a)
    return _strip(q), a


def _gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def _exact_div(a, b):
    q, r = _divmod(a, b)
    if r:
        raise DomainError("inexact univariate division")
    return q


def _squarefree(c):
    d = _derive(c)
    if not d:
        return [Fraction(1)] if c else []
    g = _gcd(c, d)
    if _deg(g) == 0:
        return c
    return _exact_div(c, g)


def _to_integer(c):
    """Scale to integer coefficients, primitive, positive leading coefficient."""
    den = 1
    for f in c:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in c]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


def cauchy_bound(c):
    """1 + max |a_i| / |a_lead|: all real roots lie inside (-B, B)."""
    lead = abs(c[-1])
    m = max((abs(a) for a in c[:-1]), default=Fraction(0))
    return 1 + m / lead


# -- Sturm sequences -----------------------------------------------------

def sturm_chain_dense(c):
    chain = [list(c), _derive(c)]
    if not chain[1]:
        chain.pop()
    while len(chain) >= 2 and chain[-1]:
        r = _neg(_divmod(chain[-2], chain[-1])[1])
        if not r:
            break
        chain.append(r)
    return chain


def _variations(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sign_variations_at(chain, x):
    return _variations([_eval(f, x) for f in chain])


@dataclass(frozen=True)
class IsolatingInterval:
    lower: Fraction
    upper: Fraction
    exact: bool = False

    def width(self):
        return self.upper - self.lower

    def __str__(self):
        if self.exact:
            return "{%s}" % self.lower
        return "[%s, %s]" % (self.lower, self.upper)


def _cells(chain, lo, hi):
    """Subintervals (a, b] of (lo, hi] holding one root each of the
    chain's square-free polynomial, by Sturm bisection."""
    stack = [(lo, hi, sign_variations_at(chain, lo), sign_variations_at(chain, hi))]
    cells = []
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            cells.append((lo, hi))
        elif vlo > vhi:
            mid = (lo + hi) / 2
            vmid = sign_variations_at(chain, mid)
            stack.append((lo, mid, vlo, vmid))
            stack.append((mid, hi, vmid, vhi))
    return cells


def _narrow(chain, lo, hi, wide):
    """Halve a one-root cell (lo, hi], keeping its root, while wide(lo, hi)."""
    vhi = sign_variations_at(chain, hi)
    while wide(lo, hi):
        mid = (lo + hi) / 2
        vmid = sign_variations_at(chain, mid)
        if vmid != vhi:     # the root is in (mid, hi]
            lo = mid
        else:
            hi, vhi = mid, vmid
    return lo, hi


def _rational_roots(q):
    """All rational roots of a square-free integer polynomial, exactly.

    Each is k/lead for an integer k, so a cell shorter than 1/lead holds
    one candidate: the largest such point at or below its upper end."""
    lead = int(q[-1])
    chain = sturm_chain_dense(q)
    bound = cauchy_bound(q)
    roots = []
    for lo, hi in _cells(chain, -bound, bound):
        lo, hi = _narrow(chain, lo, hi, lambda a, b: (b - a) * lead >= 1)
        cand = Fraction(floor(hi * lead), lead)
        if cand > lo and _eval(q, cand) == 0:
            roots.append(cand)
    return sorted(roots)


def _prepare(p):
    """(rational roots of p, q2): q2 is the square-free integer part of p
    with those roots divided out, so it has irrational roots only."""
    c = _dense(p)
    if _deg(c) < 1:
        raise DomainError("root isolation needs a nonconstant polynomial")
    q = _to_integer(_squarefree(c))
    rational = _rational_roots(q)
    for r in rational:
        q = _exact_div(q, [-r, Fraction(1)])
    return rational, q


def _refine(q, interval, width):
    """Shrink an interval on which q changes sign below `width` by
    sign-change bisection."""
    lo, hi = interval.lower, interval.upper
    slo = _eval(q, lo)
    shi = _eval(q, hi)
    if slo == 0 or shi == 0 or (slo > 0) == (shi > 0):
        raise DomainError("interval does not bracket a sign change")
    while hi - lo >= width:
        mid = (lo + hi) / 2
        sm = _eval(q, mid)
        if (sm > 0) == (slo > 0):
            lo, slo = mid, sm
        else:
            hi, shi = mid, sm
    return IsolatingInterval(lo, hi)


def isolate_real_roots(p, width=None):
    """Disjoint isolating intervals, one per distinct real root of p.

    Rational roots come back as exact points; the remaining roots as
    intervals on which the square-free part changes sign, each refined
    below `width` when one is given.
    """
    if width is not None and width <= 0:
        raise DomainError("refinement width must be positive")
    rational, q2 = _prepare(p)
    out = [IsolatingInterval(r, r, exact=True) for r in rational]
    if _deg(q2) >= 1:
        chain = sturm_chain_dense(q2)
        bound = cauchy_bound(q2)
        # push the endpoints off the rational roots, then apart
        cells = sorted(_narrow(chain, lo, hi, lambda a, b: any(a <= r <= b for r in rational))
                       for lo, hi in _cells(chain, -bound, bound))
        for k in range(1, len(cells)):
            prev_hi = cells[k - 1][1]
            cells[k] = _narrow(chain, *cells[k], lambda a, b: a <= prev_hi)
        for lo, hi in cells:
            iv = IsolatingInterval(lo, hi)
            out.append(iv if width is None else _refine(q2, iv, width))
    out.sort(key=lambda iv: (iv.lower, iv.upper))
    return out


# -- sign conditions and semialgebraic descriptions ----------------------

@dataclass(frozen=True)
class SignCondition:
    poly: Polynomial
    rel: str  # ">", "<", "="

    def __post_init__(self):
        if self.rel not in (">", "<", "="):
            raise StructuralError("bad relation %r" % self.rel)
        if self.rel in (">", "<") and self.poly.is_zero():
            raise StructuralError("strict sign condition on the zero polynomial")

    def holds_for(self, value):
        """Whether a value of the polynomial satisfies the relation."""
        return {">": value > 0, "<": value < 0, "=": value == 0}[self.rel]

    def holds_at(self, point):
        return self.holds_for(self.poly.evaluate(point))

    def text(self):
        return "%s %s 0" % (self.poly.text(), self.rel)


@dataclass(frozen=True)
class SemialgebraicDescription:
    """A union of clauses over nvars variables.  Each clause is a tuple of
    SignConditions that must all hold; ``((),)`` is all of space."""

    clauses: tuple
    nvars: int

    def holds_at(self, point):
        if len(point) != self.nvars:
            raise StructuralError("point dimension mismatch")
        return any(all(c.holds_at(point) for c in clause) for clause in self.clauses)


# -- rational witness search ---------------------------------------------

_MAX_HEIGHT = 12   # witness coordinates are searched up to this height


def rationals_by_height(max_height):
    """0, 1, -1, 1/2, -1/2, 2, -2, ... ordered by height max(|num|, den)."""
    yield Fraction(0)
    for h in range(1, max_height + 1):
        for num in range(1, h + 1):
            for den in range(1, h + 1):
                if max(num, den) != h or gcd(num, den) != 1:
                    continue
                yield Fraction(num, den)
                yield Fraction(-num, den)


def enumerate_points(desc, budget=20000):
    """Yield rational points satisfying `desc`, coordinates enumerated by
    ascending height, spending at most `budget` full-point evaluations.

    A partial assignment is pruned only when every clause has a condition
    whose polynomial already evaluates to a violating constant: a clause
    with no such condition may still hold.  Every yielded point has been
    verified by exact evaluation of the whole description.
    """
    n = desc.nvars
    if n == 0:
        if desc.holds_at([]):
            yield []
        return
    budget_left = [budget]
    candidates = list(rationals_by_height(_MAX_HEIGHT))

    def violated(cond, assignment):
        part = cond.poly.partial_eval(assignment)
        return part.is_constant() and not cond.holds_for(part.constant_value())

    def viable(assignment):
        return any(not any(violated(c, assignment) for c in clause)
                   for clause in desc.clauses)

    def search(i, assignment):
        if i == n:
            budget_left[0] -= 1
            point = [assignment[k] for k in range(n)]
            if desc.holds_at(point):
                yield point
            return
        for val in candidates:
            if budget_left[0] <= 0:
                return
            assignment[i] = val
            if viable(assignment):
                yield from search(i + 1, assignment)
            del assignment[i]

    yield from search(0, {})


def find_witness_point(desc, avoid=(), budget=20000):
    """A rational point satisfying `desc` with every avoid-polynomial
    nonzero, or None when the bounded search exhausts its budget.
    Never returns an unverified point."""
    for point in enumerate_points(desc, budget=budget):
        if all(p.evaluate(point) != 0 for p in avoid):
            return point
    return None
