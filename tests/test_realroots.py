import random
from fractions import Fraction

import pytest

from diffmod.errors import DomainError
from diffmod.poly import Polynomial, Ring
from diffmod.realroots import (SemialgebraicDescription, cauchy_bound,
                               find_witness_point, isolate_real_roots,
                               sign_variations_at, sturm_chain_dense,
                               _squarefree, _to_integer)

from conftest import within
from example1 import atom, desc_and

R1 = Ring(("x",), "x")


def P(s):
    return Polynomial.parse(R1, s)


# -- independent scan oracle ---------------------------------------------

def _horner_interval(coeffs, lo, hi):
    """Interval bound of a polynomial over [lo, hi] by interval Horner."""
    alo = ahi = Fraction(0)
    for c in reversed(coeffs):
        products = [alo * lo, alo * hi, ahi * lo, ahi * hi]
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def _scan_squarefree(coeffs):
    """Local square-free part: coeffs / gcd(coeffs, coeffs')."""
    def rem(a, b):
        a = list(a)
        while a and len(a) - 1 >= len(b) - 1:
            f = a[-1] / b[-1]
            s = len(a) - len(b)
            for i, bc in enumerate(b):
                a[i + s] -= f * bc
            while a and a[-1] == 0:
                a.pop()
        return a

    def gcd(a, b):
        a, b = list(a), list(b)
        while b:
            a, b = b, rem(a, b)
        return [x / a[-1] for x in a]

    def div(a, b):
        q = [Fraction(0)] * (len(a) - len(b) + 1)
        a = list(a)
        while a and len(a) >= len(b):
            f = a[-1] / b[-1]
            s = len(a) - len(b)
            q[s] = f
            for i, bc in enumerate(b):
                a[i + s] -= f * bc
            while a and a[-1] == 0:
                a.pop()
        assert not a
        return q

    d = [coeffs[i] * i for i in range(1, len(coeffs))]
    if not any(d):
        return coeffs
    g = gcd(coeffs, d)
    if len(g) == 1:
        return coeffs
    return div(coeffs, g)


def _scan_rational_roots(q):
    """Rational roots by divisor enumeration on the integer-scaled polynomial."""
    den = 1
    for c in q:
        den = den * c.denominator
    ints = [int(c * den) for c in q]
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    roots = {Fraction(0)} if shift else set()
    if len(ints) <= 1:
        return sorted(roots)

    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]

    for num in divisors(ints[0]):
        for d in divisors(ints[-1]):
            for cand in (Fraction(num, d), Fraction(-num, d)):
                if _eval_dense(q, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def scan_real_roots(coeffs):
    """Roots of a square-free rational polynomial by adaptive sign scanning.

    Rational roots are split off by divisor enumeration; the rest of the
    Cauchy interval is subdivided until interval arithmetic excludes zero
    or the endpoints change sign around a cell where the derivative
    cannot vanish.  Independent of Sturm sequences.
    """
    q = _scan_squarefree(coeffs)
    rational = _scan_rational_roots(q)
    for r in rational:
        n = len(q) - 1
        b = [Fraction(0)] * n
        carry = q[n]
        for i in range(n - 1, -1, -1):
            b[i] = carry
            carry = q[i] + r * carry
        assert carry == 0
        q = b
    roots = [("exact", r, r) for r in rational]
    if len(q) > 1:
        dq = [q[i] * i for i in range(1, len(q))]
        bound = cauchy_bound(q)
        stack = [(-bound, bound)]
        guard = 0
        while stack:
            guard += 1
            if guard > 500000:
                raise RuntimeError("scan did not converge")
            lo, hi = stack.pop()
            vlo = _eval_dense(q, lo)
            vhi = _eval_dense(q, hi)
            blo, bhi = _horner_interval(q, lo, hi)
            if blo > 0 or bhi < 0:
                continue
            if (vlo > 0) != (vhi > 0):
                dlo, dhi = _horner_interval(dq, lo, hi)
                if dlo > 0 or dhi < 0:
                    roots.append(("bracket", lo, hi))
                    continue
            mid = (lo + hi) / 2
            stack.append((mid, hi))
            stack.append((lo, mid))

    # shrink brackets by sign bisection until they exclude the exact
    # roots and are pairwise disjoint, so position order is root order
    def bisect_once(lo, hi):
        vlo = _eval_dense(q, lo)
        mid = (lo + hi) / 2
        vm = _eval_dense(q, mid)
        if (vm > 0) == (vlo > 0):
            return mid, hi
        return lo, mid

    brackets = [(lo, hi) for k, lo, hi in roots if k == "bracket"]
    changed = True
    while changed:
        changed = False
        for i, (lo, hi) in enumerate(brackets):
            if any(lo <= r <= hi for r in rational):
                brackets[i] = bisect_once(lo, hi)
                changed = True
        brackets.sort()
        for i in range(len(brackets) - 1):
            if brackets[i][1] >= brackets[i + 1][0]:
                brackets[i] = bisect_once(*brackets[i])
                brackets[i + 1] = bisect_once(*brackets[i + 1])
                changed = True
    roots = [("exact", r, r) for r in rational] + \
            [("bracket", lo, hi) for lo, hi in brackets]
    return sorted(roots, key=lambda t: t[1])


def _eval_dense(c, x):
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _dense(p):
    coeffs = [Fraction(0)] * (p.degree_in(0) + 1)
    for m, c in p.terms.items():
        coeffs[m[0]] = c
    return coeffs


# -- Sturm chain ----------------------------------------------------------

def test_sturm_chain_linear():
    chain = sturm_chain_dense(_dense(P("x")))
    assert chain == [[0, 1], [1]]


def test_sturm_counts_roots_of_quadratic():
    chain = sturm_chain_dense(_dense(P("x^2 - 1")))
    assert sign_variations_at(chain, Fraction(-2)) - sign_variations_at(chain, Fraction(2)) == 2


def test_sturm_on_square():
    p = P("x^2 - 2*x + 1")          # (x-1)^2
    sq = _to_integer(_squarefree(_dense(p)))
    chain = sturm_chain_dense(sq)
    assert sign_variations_at(chain, Fraction(-10)) - sign_variations_at(chain, Fraction(10)) == 1
    ivs = isolate_real_roots(p)
    assert len(ivs) == 1 and ivs[0].exact and ivs[0].lower == 1


# -- isolation -------------------------------------------------------------

def test_isolate_exact_rational_roots():
    ivs = isolate_real_roots(P("x^2 - x"))
    assert [(iv.lower, iv.exact) for iv in ivs] == [(0, True), (1, True)]


def test_isolate_sqrt2():
    ivs = isolate_real_roots(P("x^2 - 2"))
    assert len(ivs) == 2
    for iv in ivs:
        assert not iv.exact
        assert (iv.lower ** 2 - 2 < 0) != (iv.upper ** 2 - 2 < 0)
    assert ivs[0].upper < ivs[1].lower


def test_isolate_no_real_roots():
    assert isolate_real_roots(P("x^2 + 1")) == []


def test_isolate_rejects_constant():
    with pytest.raises(DomainError):
        isolate_real_roots(P("3"))


def test_refinement_keeps_sign_change():
    p = P("x^2 - 2")
    narrow = [i for i in isolate_real_roots(p, Fraction(1, 10 ** 6)) if i.lower > 0][0]
    assert narrow.width() < Fraction(1, 10 ** 6)
    assert (_eval_dense(_dense(p), narrow.lower) < 0) != (_eval_dense(_dense(p), narrow.upper) < 0)
    assert narrow.lower ** 2 < 2 < narrow.upper ** 2


@pytest.mark.parametrize("width", [0, -1, Fraction(-1, 2)])
def test_refinement_rejects_nonpositive_width(width):
    # rejected before isolation, so also without any real root
    for q in (P("x^2 - 2"), P("x - 1"), P("x^2 + 1")):
        with pytest.raises(DomainError):
            isolate_real_roots(q, width)


def test_no_cliff_on_large_constant_term():
    # trial division up to sqrt(10^30) would never finish
    p = P("x^3 - 7*x + %d" % 10 ** 30)
    [iv] = within(5, lambda: isolate_real_roots(p, Fraction(1, 10 ** 6)))
    assert not iv.exact and iv.width() < Fraction(1, 10 ** 6)
    d = _dense(p)
    assert (_eval_dense(d, iv.lower) < 0) != (_eval_dense(d, iv.upper) < 0)


def test_large_rational_root_found_exactly():
    x = P("x")
    p = (x * (10 ** 9 + 7) - (10 ** 12 + 39)) * (x * x - 2)
    ivs = within(5, lambda: isolate_real_roots(p, Fraction(1, 10 ** 6)))
    assert [iv.exact for iv in ivs] == [False, False, True]
    assert ivs[2].lower == Fraction(10 ** 12 + 39, 10 ** 9 + 7)
    for iv in ivs[:2]:
        assert (iv.lower ** 2 < 2) != (iv.upper ** 2 < 2)


def test_isolation_matches_scan_oracle_random():
    rng = random.Random(101)
    for _ in range(300):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-10, 10)) for _ in range(deg)] + \
                 [Fraction(rng.choice([i for i in range(-10, 11) if i]))]
        p = Polynomial(R1, {(i,): c for i, c in enumerate(coeffs) if c})
        if p.degree() < 1:
            continue
        ivs = isolate_real_roots(p)
        sq = _to_integer(_squarefree(_dense(p)))
        scanned = scan_real_roots(sq)
        assert len(ivs) == len(scanned)
        for iv, (kind, lo, hi) in zip(ivs, scanned):
            # same root: the scan bracket and the isolation interval overlap
            assert iv.lower <= hi and lo <= iv.upper


def test_intervals_pairwise_disjoint_random():
    rng = random.Random(103)
    x = P("x")
    for _ in range(200):
        # force clustered roots: products of small factors
        f = P("1")
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                f = f * (x * rng.randint(1, 2) - rng.randint(-3, 3))
            else:
                f = f * (x * x - rng.randint(2, 5))
        if f.degree() < 1:
            continue
        ivs = isolate_real_roots(f)
        for i in range(len(ivs) - 1):
            assert ivs[i].upper < ivs[i + 1].lower


# -- witness search ---------------------------------------------------------

def test_witness_simple_halfline():
    desc = SemialgebraicDescription(atom(P("x"), ">"), 1)
    pt = find_witness_point(desc, avoid=[P("x - 1")])
    assert pt is not None and pt[0] > 0 and pt[0] != 1


def test_witness_on_example_surface_base():
    ryz = Ring(("y", "z"), "xx")
    y, z = Polynomial.variable(ryz, "y"), Polynomial.variable(ryz, "z")
    desc = SemialgebraicDescription(desc_and(atom(y, ">"), atom(z, ">")), 2)
    pt = find_witness_point(desc, avoid=[y * 2])   # derivative data of x^2 - z y^2 branch
    assert pt is not None
    assert pt[0] > 0 and pt[1] > 0 and pt[0] != 0


def test_witness_of_a_union_of_clauses():
    # a union is a tuple of clauses; the search may not prune x = 1 because
    # the other clause, x < 0, already fails there
    x = P("x")
    desc = SemialgebraicDescription(atom(x, ">") + atom(x, "<"), 1)
    pt = find_witness_point(desc, avoid=[x - 1])
    assert pt is not None and pt[0] != 0 and pt[0] != 1 and desc.holds_at(pt)
    ryz = Ring(("y", "z"), "xx")
    y, z = Polynomial.variable(ryz, "y"), Polynomial.variable(ryz, "z")
    quadrants = desc_and(atom(y, ">") + atom(y, "<"), atom(z, "<"))
    assert quadrants == desc_and(atom(y, ">"), atom(z, "<")) + desc_and(atom(y, "<"), atom(z, "<"))
    pt = find_witness_point(SemialgebraicDescription(quadrants, 2), avoid=[y - 1])
    assert pt is not None and pt[0] < 0 and pt[1] < 0
    assert desc_and() == ((),)
    assert SemialgebraicDescription(((),), 2).holds_at([Fraction(0), Fraction(0)])


def test_witness_failure_on_empty_set():
    desc = SemialgebraicDescription(atom(P("x^2"), "<"), 1)
    assert find_witness_point(desc, budget=500) is None
