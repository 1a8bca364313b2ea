import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from diffmod.errors import UnsupportedInputError, WitnessSearchError
from diffmod.groebner import buchberger, ideal, module_equal, normal_form
from diffmod.manifest import parse_strata_manifest
from diffmod.poly import Polynomial, Ring
from diffmod.realroots import SemialgebraicDescription, atom, desc_and
from diffmod import vanishing
from diffmod.vanishing import (Stratum, complexify, factor_rational,
                               select_component, vanishing_ideal)
from diffmod.quasimonic import QuasiMonic, coeff_in_var

from conftest import random_polynomial


def P(ring, s):
    return Polynomial.parse(ring, s)


# -- component selection ------------------------------------------------------

def test_select_component_irreducible():
    ring = Ring.make(nx=1, ny=1)
    sysm = [QuasiMonic(P(ring, "y1 - x1^2"), 1)]
    out = select_component(sysm, [1, 1])
    assert module_equal(out, ideal(ring, [P(ring, "y1 - x1^2")]))


def test_select_component_example_surface():
    # base (y, z), graph variable x: the surface x^2 = z y^2 through (1, 1, 1)
    ring = Ring(("y", "z", "x"), "xxy")
    sysm = [QuasiMonic(P(ring, "x^2 - z*y^2"), 2)]
    out = select_component(sysm, [1, 1, 1])
    assert module_equal(out, ideal(ring, [P(ring, "x^2 - z*y^2")]))


def test_select_component_splits_square_difference():
    ring = Ring.make(nx=1, ny=1)
    sysm = [QuasiMonic(P(ring, "y1^2 - x1^2"), 1)]
    out = select_component(sysm, [1, 1])
    assert module_equal(out, ideal(ring, [P(ring, "y1 - x1")]))
    out2 = select_component(sysm, [1, -1])
    assert module_equal(out2, ideal(ring, [P(ring, "y1 + x1")]))


def _base_poly(rng, ring, **kw):
    """A random polynomial free of the graph variable y1 (index 2)."""
    f = random_polynomial(rng, ring, **kw)
    return Polynomial(ring, {m: c for m, c in f.terms.items() if m[2] == 0})


def _quadratics(rng):
    """Seeded quadratics in w = y1 over Q[x1, x2], labelled by shape."""
    ring = Ring.make(nx=2, ny=1)
    w = P(ring, "y1")
    out = []
    for shape in ["generic"] * 12 + ["split"] * 8 + ["double"] * 4 + ["lead"] * 4:
        a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        r1, r2 = (_base_poly(rng, ring, deg=2, nterms=3, height=5) for _ in range(2))
        if shape == "generic":
            p = w * w * a + w * r1 + r2
        elif shape == "split":
            p = (w - r1) * (w - r2) * a
        elif shape == "double":
            p = (w - r1) ** 2 * a
        else:
            lead = _base_poly(rng, ring, deg=2, nterms=2, height=5)
            if lead.is_constant():
                lead = lead + P(ring, "x1")
            p = w * w * lead + w * r1 + r2
        out.append((shape, QuasiMonic(p, 2)))
    return out


def _rule_disagreements(cases):
    """Cases where the exact rule and sympy's factorisation disagree.  The
    rule may answer only when a coefficient in w is a nonzero constant."""
    bad = []
    for shape, qm in cases:
        proved = vanishing._irreducible(qm)
        coeffs = [coeff_in_var(qm.poly, qm.var, k) for k in range(qm.deg + 1)]
        if all(c.is_zero() or not c.is_constant() for c in coeffs):
            if proved:
                bad.append((shape, qm.poly.text(), "answered with no constant coefficient"))
            continue
        factors = factor_rational(qm.poly)
        whole = (len(factors) == 1 and factors[0][1] == 1 and
                 _up_to_scalar(factors[0][0]) == _up_to_scalar(qm.poly))
        if proved != whole:
            bad.append((shape, qm.poly.text(), proved))
    return bad


def test_irreducibility_rule_agrees_with_factoring():
    cases = _quadratics(random.Random(1909))
    assert _rule_disagreements(cases) == []
    proved = [shape for shape, qm in cases if vanishing._irreducible(qm)]
    deferred = [shape for shape, qm in cases if not vanishing._irreducible(qm)]
    # both answers occur: the split and double-root quadratics are deferred
    assert "generic" in proved and "split" in deferred and "double" in deferred


def test_irreducibility_rule_without_square_test_is_caught(monkeypatch):
    monkeypatch.setattr(vanishing, "_is_square", lambda p: False)
    assert _rule_disagreements(_quadratics(random.Random(1909)))


def test_is_square_on_seeded_squares():
    ring = Ring.make(nx=2, ny=1)
    rng = random.Random(2718)
    for _ in range(20):
        s = _base_poly(rng, ring, deg=3, nterms=4, height=9)
        assert vanishing._is_square(s * s)
        if s.is_zero():
            continue
        assert not vanishing._is_square(s * s * 2)
        assert not vanishing._is_square(s * s * -1)
        assert not vanishing._is_square(s * s * P(ring, "x1"))
        assert not vanishing._is_square(s * s + P(ring, "x1 + 1"))


def test_select_component_rejects_singular_witness():
    ring = Ring.make(nx=1, ny=1)
    sysm = [QuasiMonic(P(ring, "y1^2 - x1^2"), 1)]
    with pytest.raises(UnsupportedInputError):
        select_component(sysm, [0, 0])


def test_select_component_rejects_two_nonlinear():
    ring = Ring.make(nx=1, ny=2)
    sysm = [QuasiMonic(P(ring, "y1^2 - x1"), 1),
            QuasiMonic(P(ring, "y2^2 - x1"), 2)]
    with pytest.raises(UnsupportedInputError):
        select_component(sysm, [1, 1, 1])


def test_select_component_saturates_leading_coefficient():
    # leading coefficients x1 and x1^2 must be inverted; the saturation is
    # returned as it comes, so it must already be the reduced basis
    ring = Ring.make(nx=1, ny=1)
    for text, witness in (("x1*y1 - 1", [1, 1]), ("x1^2*y1 - x1 - 1", [1, 2])):
        sysm = [QuasiMonic(P(ring, text), 1)]
        out = select_component(sysm, witness)
        assert module_equal(out, ideal(ring, [P(ring, text)]))
        assert out.is_groebner
        assert out.gens == buchberger(out).gens


# -- complexify ----------------------------------------------------------------

def test_complexify_parabola_arc():
    # graph of y = x^2 over 0 < x < 1: same ideal as the whole parabola
    ring = Ring.make(nx=1, ny=1)
    u = desc_and(atom(P(Ring.make(nx=1), "x1"), ">"),
                 atom(P(Ring.make(nx=1), "1 - x1"), ">"))
    st = Stratum(n=1, m=1, p=0, ring=ring,
                 u_desc=SemialgebraicDescription(u, 1),
                 anns_y=[P(ring, "y1 - x1^2")],
                 witness=[Fraction(1, 2), Fraction(1, 4)])
    out = complexify(st)
    assert module_equal(out, ideal(ring, [P(ring, "y1 - x1^2")]))


def test_complexify_invariant_under_base_scaling():
    ring = Ring.make(nx=1, ny=1)
    st1 = Stratum(n=1, m=1, p=0, ring=ring, anns_y=[P(ring, "y1 - x1^2")],
                  witness=[2, 4])
    st2 = Stratum(n=1, m=1, p=0, ring=ring,
                  anns_y=[P(ring, "y1 - x1^2") * P(ring, "x1^2 + 1")],
                  witness=[2, 4])
    assert module_equal(complexify(st1), complexify(st2))


def test_complexify_searches_witness():
    ring = Ring.make(nx=1, ny=1)
    st = Stratum(n=1, m=1, p=0, ring=ring, anns_y=[P(ring, "y1 - x1^3")])
    out = complexify(st)
    assert module_equal(out, ideal(ring, [P(ring, "y1 - x1^3")]))


def test_complexify_open_stratum_zero_ideal():
    ring = Ring.make(nx=2)
    st = Stratum(n=2, m=0, p=0, ring=ring)
    assert not complexify(st).gens


def test_vanishing_ideal_example_negative_level():
    # E = {x^2 - z y^2 = 0, z <= -1} = the ray x = y = 0, z <= -1:
    # strata are the open ray and its endpoint; the ideal is (x, y)
    amb = Ring.make(nx=3)
    ray_ring = Ring.make(nx=1, ny=2)
    ux = Ring.make(nx=1)
    ray = Stratum(
        n=1, m=2, p=0, ring=ray_ring,
        u_desc=SemialgebraicDescription(atom(P(ux, "-1*x1 - 1"), ">"), 1),
        anns_y=[P(ray_ring, "y1"), P(ray_ring, "y2")],
        witness=[-2, 0, 0],
        T=[[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    endpoint_ring = Ring.make(nx=0, ny=3)
    endpoint = Stratum(
        n=0, m=3, p=0, ring=endpoint_ring,
        anns_y=[P(endpoint_ring, "y1"), P(endpoint_ring, "y2"),
                P(endpoint_ring, "y3 + 1")],
        witness=[0, 0, -1])
    out = vanishing_ideal([ray, endpoint])
    want = ideal(amb, [P(amb, "x1"), P(amb, "x2")])
    assert module_equal(out, want)


def example_positive_strata(amb):
    """Strata of E = {x^2 = z y^2, z <= 1}: four branch surfaces, the line
    x = y = 0 (z < 1), the boundary lines at z = 1, the y-axis at z = 0,
    and the top point."""
    u2 = Ring.make(nx=2)
    u1 = Ring.make(nx=1)
    strata = []
    branch_ring = Ring.make(nx=2, ny=1)
    t_branch = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]   # local (y, z, x)
    for ysign in (1, -1):
        for xsign in (1, -1):
            u = desc_and(atom(P(u1, "x1").lift(u2) * ysign, ">"),
                         atom(P(u2, "x2"), ">"),
                         atom(P(u2, "1 - x2"), ">"))
            wit_y = Fraction(ysign)
            wit_x = Fraction(xsign * ysign, 2)
            strata.append(Stratum(
                n=2, m=1, p=0, ring=branch_ring,
                u_desc=SemialgebraicDescription(u, 2),
                anns_y=[P(branch_ring, "y1^2 - x2*x1^2")],
                witness=[wit_y, Fraction(1, 4), wit_x],
                T=t_branch))
    line_ring = Ring.make(nx=1, ny=2)
    t_line = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]     # local (z, x, y)
    strata.append(Stratum(
        n=1, m=2, p=0, ring=line_ring,
        u_desc=SemialgebraicDescription(atom(P(u1, "1 - x1"), ">"), 1),
        anns_y=[P(line_ring, "y1"), P(line_ring, "y2")],
        witness=[0, 0, 0], T=t_line))
    t_yaxis = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]    # local (y, x, z)
    for s in (1, -1):
        strata.append(Stratum(
            n=1, m=2, p=0, ring=line_ring,
            u_desc=SemialgebraicDescription(atom(P(u1, "x1") * s, ">"), 1),
            anns_y=[P(line_ring, "y1"), P(line_ring, "y2")],
            witness=[s, 0, 0], T=t_yaxis))
    for s in (1, -1):
        for branch in (1, -1):
            # x = branch * y on z = 1, local coordinate y
            strata.append(Stratum(
                n=1, m=2, p=0, ring=line_ring,
                u_desc=SemialgebraicDescription(atom(P(u1, "x1") * s, ">"), 1),
                anns_y=[P(line_ring, "y1 - x1") if branch == 1 else P(line_ring, "y1 + x1"),
                        P(line_ring, "y2 - 1")],
                witness=[s, branch * s, 1], T=t_yaxis))
    top_ring = Ring.make(nx=0, ny=3)
    strata.append(Stratum(
        n=0, m=3, p=0, ring=top_ring,
        anns_y=[P(top_ring, "y1"), P(top_ring, "y2"), P(top_ring, "y3 - 1")],
        witness=[0, 0, 1]))
    return strata


def test_vanishing_ideal_example_positive_level():
    amb = Ring.make(nx=3)
    strata = example_positive_strata(amb)
    out = vanishing_ideal(strata)
    want = ideal(amb, [P(amb, "x1^2 - x3*x2^2")])
    assert module_equal(out, want)


def test_vanishing_single_stratum_matches_complexify():
    ring = Ring.make(nx=1, ny=1)
    st = Stratum(n=1, m=1, p=0, ring=ring, anns_y=[P(ring, "y1 - x1^2")],
                 witness=[1, 1])
    amb = Ring.make(nx=2)
    out = vanishing_ideal([st])
    assert module_equal(out, ideal(amb, [P(amb, "x2 - x1^2")]))


def _meet_every_time(result, basis, ring, T, key, pulled):
    # the rule before (ideal, T) pairs were met once
    contrib = vanishing.pull_back(basis, ring, T)
    return (contrib if result is None else vanishing.intersect(result, contrib)), contrib


@pytest.mark.parametrize("listed", [(0, 4, 0), (0, 0, 4)], ids=["after-a-meet", "first-twice"])
def test_vanishing_ideal_meets_a_repeated_stratum_once(monkeypatch, listed):
    # stratum 0 (a 2-D sheet) listed twice beside stratum 4 (a 1-D branch):
    # a repeat after a meet is neither pulled back nor intersected again; a
    # raw first contribution is still met with its repeat
    path = Path(__file__).resolve().parent.parent / "manifests" / "level_set_positive_vanish.txt"
    strata = parse_strata_manifest(path.read_text())

    def run(idx, rule=None):
        with monkeypatch.context() as mp:
            if rule is not None:
                mp.setattr(vanishing, "meet", rule)
            calls = []
            for name in ("pull_back", "intersect"):
                def counted(*args, _inner=getattr(vanishing, name), _name=name):
                    calls.append(_name)
                    return _inner(*args)
                mp.setattr(vanishing, name, counted)
            out = vanishing_ideal([strata[i] for i in idx])
        return [g.text() for g in out.gens], calls.count("pull_back"), calls.count("intersect")

    twice, pulls, meets = run(listed)
    every, pulls_every, meets_every = run(listed, _meet_every_time)
    once, pulls_once, meets_once = run((0, 4))
    assert twice == every == once
    assert pulls == pulls_once == pulls_every - 1 == 2
    if listed == (0, 4, 0):
        assert meets == meets_once == meets_every - 1 == 1
    else:
        assert meets == meets_every == meets_once + 1 == 2


def test_vanishing_ideal_keys_each_stratum_by_its_ideal():
    # two strata over one ring with no T differ only in their ideals, so
    # the second is met, not taken for a repeat of the first
    ring = Ring.make(nx=1, ny=1)
    a, b = (Stratum(n=1, m=1, p=0, ring=ring, anns_y=[P(ring, f)], witness=[1, 1])
            for f in ("y1 - x1^2", "y1 - x1^3"))
    amb = Ring.make(nx=2)
    want = ideal(amb, [P(amb, "x2 - x1^2") * P(amb, "x2 - x1^3")])
    assert module_equal(vanishing_ideal([a, b, a]), want)


def test_vanishing_generators_vanish_on_samples():
    amb = Ring.make(nx=3)
    strata = example_positive_strata(amb)
    out = vanishing_ideal(strata)
    rng = random.Random(51)
    # rational sample points of E: (x, y, z) with x = s*y, z = s^2, plus the ray
    for _ in range(50):
        s = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        y = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        pts = []
        if s * s <= 1:
            pts.append([s * y, y, s * s])
        z = Fraction(-abs(rng.randint(0, 10)), rng.randint(1, 10))
        pts.append([Fraction(0), Fraction(0), z])
        for pt in pts:
            for g in out.gens:
                assert g[0].evaluate(pt) == 0


def test_witness_failure_reported():
    ring = Ring.make(nx=1, ny=1)
    # irrational branch everywhere: y^2 = 2 (1 + x^2) has no rational points
    st = Stratum(n=1, m=1, p=0, ring=ring,
                 anns_y=[P(ring, "y1^2 - 2*x1^2 - 2")])
    with pytest.raises(WitnessSearchError):
        complexify(st, budget=300)


def test_factor_rational_roundtrip():
    ring = Ring.make(nx=1, ny=1)
    p = P(ring, "y1^2 - x1^2") * P(ring, "2*y1 + 1")
    factors = factor_rational(p)
    assert len(factors) == 3
    prod = Polynomial.one(ring)
    for f, k in factors:
        prod = prod * f ** k
    # same polynomial up to the dropped rational constant
    mono = next(iter(prod.terms))
    ratio = p.terms.get(mono, 0) / prod.terms.get(mono, 0)
    assert prod * ratio == p


def _up_to_scalar(f):
    """Text of f scaled so that its leading term has coefficient 1."""
    lead = f.sorted_terms()[0][1]
    return (f * (1 / lead)).text()


def _expression_factor_list(p):
    """Reference: sympy's expression-level factor_list, read back by Poly."""
    syms = [sympy.Symbol(n) for n in p.ring.names]
    expr = sympy.Add(*[sympy.Rational(c.numerator, c.denominator) *
                       sympy.Mul(*[s ** e for s, e in zip(syms, m)])
                       for m, c in p.terms.items()])
    _, factors = sympy.factor_list(expr)
    out = []
    for f, k in factors:
        terms = {tuple(m): Fraction(int(c.p), int(c.q))
                 for m, c in sympy.Poly(f, *syms).terms()}
        out.append((Polynomial(p.ring, terms), int(k)))
    return out


def test_factor_rational_matches_expression_path():
    ring = Ring.make(nx=2, ny=1)
    rng = random.Random(606)
    for _ in range(12):
        p = Polynomial.constant(ring, Fraction(rng.randint(1, 9), rng.randint(2, 9)))
        for k in (1, 1, 2):     # one repeated factor
            f = random_polynomial(rng, ring, deg=2, nterms=3, height=5)
            if f.degree() >= 1:
                p = p * f ** k
        if p.degree() < 1:
            continue
        got = factor_rational(p)
        want = _expression_factor_list(p)
        assert sorted((_up_to_scalar(f), k) for f, k in got) == \
            sorted((_up_to_scalar(f), k) for f, k in want)
        prod = Polynomial.one(ring)
        for f, k in got:
            prod = prod * f ** k
        mono = next(iter(prod.terms))
        assert prod * (p.terms[mono] / prod.terms[mono]) == p
