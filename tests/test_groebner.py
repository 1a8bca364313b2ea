import random
from fractions import Fraction
from math import gcd
from operator import ge
from pathlib import Path

import pytest

from diffmod import groebner, pipeline
from diffmod.errors import DomainError, StructuralError
from diffmod.groebner import (SubmoduleBasis, buchberger, critical_l,
                              eliminate, full_module, ideal, intersect,
                              module_equal, normal_form, poly_exact_div,
                              saturate, solve_inhomogeneous, syzygy_module,
                              _Gen, _index, _nf, _spair)
from diffmod.manifest import parse_operator_manifest
from diffmod.orders import (LIMIT, MEMO, ModuleOrder, block_order, elim_order,
                            grevlex_order, lex_order, mono_mul, packing, top_order)
from diffmod.poly import Polynomial, PolyVec, Ring

from conftest import (random_columns, random_nonzero_polynomial, random_polynomial,
                      random_vec)
from oracle import membership_by_linear_algebra, vec_membership_by_linear_algebra

RXY = Ring(("x", "y"), "xx")
RXYZ = Ring(("x", "y", "z"), "xxx")
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def P(ring, s):
    return Polynomial.parse(ring, s)


def test_normal_form_membership_and_remainder():
    x = P(RXY, "x")
    basis = ideal(RXY, [x])
    assert normal_form(P(RXY, "x^2"), basis).is_zero()
    assert normal_form(P(RXY, "x + 1"), basis) == Polynomial.one(RXY)


def test_normal_form_lex_substitution():
    # NF(x^2 y, {x - y}) under lex x > y is y^3; x^2 y - y^3 in (x - y)
    basis = ideal(RXY, [P(RXY, "x - y")], order=ModuleOrder(lex_order(), "top"))
    nf = normal_form(P(RXY, "x^2*y"), basis)
    assert nf == P(RXY, "y^3")
    diff = P(RXY, "x^2*y - y^3")
    q = poly_exact_div(diff, P(RXY, "x - y"))
    assert q * P(RXY, "x - y") == diff


def test_buchberger_principal_ideal_fixed_point():
    for s in ("x", "x^2 - z*y^2"):
        basis = ideal(RXYZ, [P(RXYZ, s)])
        gb = buchberger(basis)
        assert len(gb.gens) == 1
        assert gb.gens[0][0] == P(RXYZ, s) * (1 / P(RXYZ, s).leading()[1])


def test_buchberger_triangular_solve():
    basis = ideal(RXY, [P(RXY, "x - y"), P(RXY, "y - 1")],
                  order=ModuleOrder(lex_order(), "top"))
    gb = buchberger(basis)
    target = ideal(RXY, [P(RXY, "x - 1"), P(RXY, "y - 1")])
    assert module_equal(gb, target)


def test_syzygy_x_y():
    x, y = P(RXY, "x"), P(RXY, "y")
    syz = syzygy_module([x, y])
    want = PolyVec([y, -x])
    assert any(g == want or g == -want for g in syz.gens)
    for g in syz.gens:
        assert (g[0] * x + g[1] * y).is_zero()
    # completeness at low degree: every brute-force relation of degree <= 4
    # lies in the module generated by the returned syzygies
    rng = random.Random(3)
    for _ in range(20):
        a = random_polynomial(rng, RXY, deg=3)
        cand = PolyVec([a * y, -a * x])
        assert vec_membership_by_linear_algebra(cand, list(syz.gens), degcap=8)


def test_syzygy_unit_and_duplicate():
    one = Polynomial.one(RXY)
    assert not syzygy_module([one]).gens
    x = P(RXY, "x")
    syz = syzygy_module([x, x])
    want = PolyVec([one, -one])
    assert any(g == want or g == -want for g in syz.gens)


def test_solve_inhomogeneous_cases():
    x, y = P(RXY, "x"), P(RXY, "y")
    sol = solve_inhomogeneous([PolyVec([x])], [P(RXY, "x^2")])
    assert sol is not None and sol[0] * x == P(RXY, "x^2")

    assert solve_inhomogeneous([PolyVec([x])], [y]) is None

    sol = solve_inhomogeneous([PolyVec([x]), PolyVec([y])], PolyVec([P(RXY, "x^2 + y^2")]))
    assert sol is not None
    assert sol[0] * x + sol[1] * y == P(RXY, "x^2 + y^2")

    with pytest.raises(StructuralError, match="empty system"):
        solve_inhomogeneous([], [x])
    with pytest.raises(StructuralError, match="rhs length mismatch"):
        solve_inhomogeneous([PolyVec([x, y])], [x])


def test_mixed_rings_are_rejected():
    # the core never terminates on monomials of two lengths
    x, z = P(RXY, "x"), P(RXYZ, "z")
    for call in (lambda: syzygy_module([PolyVec([x]), PolyVec([z])]),
                 lambda: saturate(ideal(RXY, [x]), z),
                 lambda: critical_l([PolyVec([x])], [PolyVec([z])], x),
                 lambda: solve_inhomogeneous([PolyVec([x])], [z]),
                 lambda: poly_exact_div(x, z),
                 lambda: normal_form(z, buchberger(ideal(RXY, [x])))):
        with pytest.raises(StructuralError, match="mixed rings in system"):
            call()


def test_poly_exact_div_quotients_and_errors():
    # the quotient is read off the tracked normal form of q*f against f
    rng = random.Random(17)
    for _ in range(30):
        f = random_nonzero_polynomial(rng, RXYZ, deg=2, nterms=3, height=4)
        q = random_polynomial(rng, RXYZ, deg=3, nterms=4, height=5)
        assert poly_exact_div(q * f, f) == q
        if not f.is_constant():
            with pytest.raises(DomainError, match="polynomial division is not exact"):
                poly_exact_div(q * f + Polynomial.one(RXYZ), f)
    with pytest.raises(DomainError, match="division by zero polynomial"):
        poly_exact_div(P(RXY, "x"), Polynomial.zero(RXY))


def test_intersect_principal():
    x, y = P(RXY, "x"), P(RXY, "y")
    inter = intersect(ideal(RXY, [x]), ideal(RXY, [y]))
    assert module_equal(inter, ideal(RXY, [x * y]))
    # minimality: xy generates; x is not in the intersection
    assert not membership_by_linear_algebra(x, [g[0] for g in inter.gens], 6)


def test_intersect_idempotent_and_example_surface():
    m = ideal(RXY, [P(RXY, "x + y"), P(RXY, "x*y")])
    assert module_equal(intersect(m, m), m)
    surf = ideal(RXYZ, [P(RXYZ, "x^2 - z*y^2")])
    line = ideal(RXYZ, [P(RXYZ, "x"), P(RXYZ, "y")])
    assert module_equal(intersect(surf, line), surf)


def test_saturate_examples():
    x, y = P(RXY, "x"), P(RXY, "y")
    assert module_equal(saturate(ideal(RXY, [x * y]), x), ideal(RXY, [y]))
    m = ideal(RXY, [P(RXY, "x^2*y - x")])
    assert module_equal(saturate(m, Polynomial.one(RXY)), m)
    assert module_equal(saturate(ideal(RXY, [P(RXY, "x^2")]), x),
                        ideal(RXY, [Polynomial.one(RXY)]))
    with pytest.raises(DomainError):
        saturate(m, Polynomial.zero(RXY))


def test_eliminate_examples():
    rt = Ring(("t", "x"), "xx")
    t, x = P(rt, "t"), P(rt, "x")
    g = eliminate(ideal(rt, [t - x * x]), ["t"])
    assert not g.gens
    g2 = eliminate(ideal(rt, [t - x * x, t]), ["t"])
    assert module_equal(g2, ideal(rt, [x * x]))
    g3 = eliminate(ideal(RXY, [P(RXY, "x")]), ["y"])
    assert module_equal(g3, ideal(RXY, [P(RXY, "x")]))


def test_module_equal_cases():
    x, y = P(RXY, "x"), P(RXY, "y")
    assert module_equal(ideal(RXY, [x]), ideal(RXY, [x, x * x]))
    assert not module_equal(ideal(RXY, [x]), ideal(RXY, [y]))
    m1 = SubmoduleBasis(RXY, 2, [PolyVec([x - y, Polynomial.zero(RXY)]),
                                 PolyVec([Polynomial.zero(RXY), y])])
    m2 = SubmoduleBasis(RXY, 2, [PolyVec([Polynomial.zero(RXY), y * 3]),
                                 PolyVec([(x - y) * Fraction(-1, 2), Polynomial.zero(RXY)])])
    assert module_equal(m1, m2)


def test_critical_l_examples():
    r1 = Ring(("x",), "x")
    x = P(r1, "x")
    one = Polynomial.one(r1)

    l0, m = critical_l([PolyVec([x])], [PolyVec([x])], x)
    assert l0 == 0
    assert module_equal(m, SubmoduleBasis(r1, 1, [PolyVec([one])]))

    l0, m = critical_l([PolyVec([x])], [PolyVec([one])], x)
    assert l0 == 1
    assert module_equal(m, SubmoduleBasis(r1, 1, [PolyVec([one])]))

    l0, m = critical_l([PolyVec([x * x])], [PolyVec([one])], x)
    assert l0 == 2
    assert module_equal(m, SubmoduleBasis(r1, 1, [PolyVec([one])]))

    with pytest.raises(DomainError):
        critical_l([PolyVec([x])], [PolyVec([one])], Polynomial.zero(r1))
    with pytest.raises(StructuralError, match="empty B matrix"):
        critical_l([PolyVec([x])], [], x)
    with pytest.raises(StructuralError, match="A/B row mismatch"):
        critical_l([PolyVec([x, x])], [PolyVec([one])], x)


def _criterion6_instances():
    """The (A, B, Delta) family of acceptance criterion 6, drawn from seed
    66, with A and B as column vectors."""
    rng = random.Random(66)
    ring = Ring.make(nx=2)
    for _ in range(50):
        rows = rng.randint(1, 2)
        ja = rng.randint(1, 3)
        kb = rng.randint(1, 2)
        a = random_columns(rng, ring, rows, ja, deg=2, nterms=2, height=3)
        b = random_columns(rng, ring, rows, kb, deg=2, nterms=2, height=3)
        delta = random_nonzero_polynomial(rng, ring, deg=2, nterms=2, height=3)
        yield a, b, delta


def _chain_module(a, b, delta, l):
    """M_l = {P : Delta^l * B P in col(A)}, through its own syzygy module."""
    kb = len(b)
    cols = [v.scale(delta ** l) for v in b] + list(a)
    gens = [PolyVec(s.comps[:kb]) for s in syzygy_module(cols).gens]
    return SubmoduleBasis(delta.ring, kb, [g for g in gens if not g.is_zero()])


def test_critical_l_is_minimal_and_saturate_matches_oracle():
    positive = 0
    for a, b, delta in _criterion6_instances():
        l0, m = critical_l(a, b, delta)
        assert module_equal(m, _chain_module(a, b, delta, l0))
        if l0 > 0:
            positive += 1
            assert not module_equal(_chain_module(a, b, delta, l0 - 1), m)
    assert positive > 0

    rng = random.Random(67)
    for _ in range(20):
        j = rng.randint(1, 2)
        f = random_nonzero_polynomial(rng, RXY, deg=1, nterms=2, height=3)
        # M = (f^e_i * v_i), so every v_i lies in M : f^inf
        vs = [random_vec(rng, RXY, j, deg=1, nterms=2, height=3)
              for _ in range(rng.randint(1, 2))]
        m = SubmoduleBasis(RXY, j, [v.scale(f ** rng.randint(0, 2)) for v in vs])
        sat = saturate(m, f)
        identity = [PolyVec.unit(RXY, j, k) for k in range(j)]
        l0, _ = critical_l(m.gens, identity, f)
        for g in list(m.gens) + [v for v in vs if not v.is_zero()]:
            deg = max(p.degree() for p in g.comps)
            assert vec_membership_by_linear_algebra(g, list(sat.gens), degcap=deg)
        for g in sat.gens:
            target = g.scale(f ** l0)
            deg = max(p.degree() for p in target.comps)
            assert vec_membership_by_linear_algebra(target, list(m.gens), degcap=deg + 4)


def _counting_cores(monkeypatch):
    calls = []
    inner = groebner._buchberger_core

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger_core", counted)
    return calls


def test_critical_l_with_a_unit_delta_builds_one_basis(monkeypatch):
    # no entry is constant, so no row is pre-eliminated; a unit Delta
    # needs neither the Rabinowitsch generators nor a basis of col(A)
    x, y = P(RXY, "x"), P(RXY, "y")
    a = [PolyVec([x * y, x]), PolyVec([y * y, x + y])]
    b = [PolyVec([x, y])]
    cores = _counting_cores(monkeypatch)
    l0, m = critical_l(a, b, Polynomial.constant(RXY, Fraction(-3, 2)))
    assert (l0, len(cores)) == (0, 1)
    del cores[:]
    critical_l(a, b, x)
    assert len(cores) == 2
    assert module_equal(m, _chain_module(a, b, Polynomial.one(RXY), 0))


def _with_unit_row(rng, a, b):
    """(A, B) with one more row r, at a random place and with arbitrary
    entries, and one more A column, a nonzero rational constant at r and 0
    elsewhere.  Then a random multiple of row r is added to every other
    row: a row operation, so every M_l stays the same, and it fills the new
    column, so pruning row r must divide by the constant."""
    ring = b[0].ring
    rows = len(b[0])
    at, col = rng.randint(0, rows), rng.randint(0, len(a))

    def entries(k):
        return [random_polynomial(rng, ring, deg=2, nterms=2, height=3) for _ in range(k)]

    a2 = [list(v.comps) for v in a]
    a2.insert(col, [Polynomial.zero(ring)] * rows)
    pivot = Polynomial.constant(ring, Fraction(rng.randint(1, 9), rng.choice([-3, -2, 2, 5])))
    b2 = [list(v.comps) for v in b]
    for cols, row in ((a2, entries(col) + [pivot] + entries(len(a) - col)),
                      (b2, entries(len(b)))):
        for v, e in zip(cols, row):
            v.insert(at, e)
    for i in range(rows + 1):
        if i != at:
            w = random_polynomial(rng, ring, deg=1, nterms=1, height=3)
            for v in a2 + b2:
                v[i] = v[i] + w * v[at]
    return [PolyVec(v) for v in a2], [PolyVec(v) for v in b2]


def test_critical_l_unchanged_by_a_row_with_a_unit_pivot():
    rng = random.Random(68)
    units = positive = 0
    for n, (a, b, delta) in enumerate(_criterion6_instances()):
        if n % 2:
            delta = Polynomial.constant(delta.ring, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        l0, m = critical_l(a, b, delta)
        a2, b2 = _with_unit_row(rng, a, b)
        l2, m2 = critical_l(a2, b2, delta)
        assert l2 == l0
        assert module_equal(m2, m)
        assert module_equal(m2, _chain_module(a2, b2, delta, l2))
        if l2 > 0:
            positive += 1
            assert not module_equal(_chain_module(a2, b2, delta, l2 - 1), m2)
        units += delta.is_constant()
    assert units >= 25 and positive > 0


def test_largest_stage_one_system_is_pruned_before_the_elimination(monkeypatch):
    # row (1,0;1) on the 2-D sheets of the shipped positive indicator: both
    # annihilators have constant leads, so each stage-I system is born with
    # the remainder rows of division by them: the multipliers 1, y1, y1^2 of
    # the largest lifted operator, of order 2 in y1 alone, times {1, y1}.
    # _prune finds no unit pivot left to remove; each
    # stage-II system is born reduced modulo (z1 - 1)^3, so it has at most
    # the rows 1, z1, z1^2
    open_calls, stage_one, stage_two = [], [], []
    inner_gsm = pipeline.graph_solution_module
    inner_cl, inner_prune = pipeline.critical_l_columns, groebner._prune

    def spy_gsm(*args, **kwargs):
        # counts the systems of one graph_solution_module call; its first
        # is the stage-I system, and systems outside any call are stage II
        open_calls.append(0)
        try:
            return inner_gsm(*args, **kwargs)
        finally:
            open_calls.pop()

    def spy_cl(rows, a_cols, b_cols, delta):
        if not open_calls:
            stage_two.append(rows)
        else:
            if open_calls[-1] == 0:
                stage_one.append([rows])
            open_calls[-1] += 1
        return inner_cl(rows, a_cols, b_cols, delta)

    def spy_prune(rows, a_cols, b_cols, zero):
        res = inner_prune(rows, a_cols, b_cols, zero)
        if stage_one and len(stage_one[-1]) == 1:
            stage_one[-1].append(res[0])
        return res

    monkeypatch.setattr(pipeline, "graph_solution_module", spy_gsm)
    monkeypatch.setattr(pipeline, "critical_l_columns", spy_cl)
    monkeypatch.setattr(groebner, "_prune", spy_prune)
    text = (MANIFESTS / "level_set_positive_indicator.txt").read_text()
    pipeline.main_mclosure(parse_operator_manifest(text.replace(
        "1 ; 1 ; (0,0) ; (0) ; 1", "1 ; 1 ; (1,0) ; (1) ; 1")))
    assert max(rows for rows, _ in stage_one) == 6
    assert all(left == rows for rows, left in stage_one)
    assert stage_two and max(stage_two) <= 3


def _random_term(rng, nvars, ncomps):
    """(comp, mono), its exponents small or, now and then, up to the limit."""
    top = LIMIT if rng.random() < 0.3 else 4
    return rng.randrange(ncomps), tuple(rng.randrange(rng.choice([3, top]))
                                        for _ in range(nvars))


@pytest.mark.parametrize("order, nvars", [
    (ModuleOrder(lex_order()), 3),
    (ModuleOrder(grevlex_order()), 4),
    (ModuleOrder(elim_order([1, 3]), "top", comp_elim=2), 4),
    (ModuleOrder(grevlex_order(), "top", comp_elim=1), 3),
], ids=["lex", "grevlex", "elim-tag-comp-elim", "grevlex-comp-elim"])
def test_packed_terms_follow_the_order(order, nvars):
    # the elimination order drops variable 1 and the tag variable 3, as
    # _eliminate_tag builds it; components below comp_elim outweigh the rest
    rng = random.Random(37)
    pk = packing(order, nvars)
    for _ in range(2000):
        (ca, a), (cb, b) = _random_term(rng, nvars, 4), _random_term(rng, nvars, 4)
        ta, tb = pk.pack(ca, a), pk.pack(cb, b)
        assert pk.unpack(ta) == (ca, a)
        assert (ta < tb) == (order.key(ca, a) < order.key(cb, b))
        assert (ta == tb) == ((ca, a) == (cb, b))
        assert (not (ta - pk.pack(ca, b)) & pk.guard) == all(map(ge, a, b))
        product = ta + pk.shift(b)
        if max(mono_mul(a, b)) < LIMIT:
            assert product == pk.pack(ca, mono_mul(a, b))
        else:
            assert product & pk.guard
            with pytest.raises(DomainError):
                pk.unpack(product)
    # shift and unpack memoise only what passed the limit check, so an
    # over-limit input raises on every call
    small, top = (1,) * nvars, (LIMIT - 1,) + (0,) * (nvars - 1)
    term = pk.pack(1, small)
    assert pk.unpack(term) == (1, small) and pk.shift(top) == pk.shift(top)
    for _ in range(2):
        with pytest.raises(DomainError):
            pk.shift((LIMIT,) + small[1:])
        with pytest.raises(DomainError):
            pk.unpack(term + pk.shift(top))


def test_packing_memos_stay_bounded():
    # a long run of distinct monomials keeps at most MEMO of them per memo,
    # and every value read after a memo emptied is still the right one
    pk = packing(top_order(), 2)
    monos = [(a, b) for a in range(3 * MEMO // 50) for b in range(50)]
    for mono in monos:
        pk.unpack(pk.pack(0, mono))
    assert len(pk._shifts) <= MEMO and len(pk._terms) <= MEMO
    for mono in monos[::97]:
        assert pk.shift(mono) == mono[0] * pk.units[0] + mono[1] * pk.units[1]
        assert pk.unpack(pk.pack(0, mono)) == (0, mono)
    assert packing.cache_info().maxsize is not None


def test_spair_normal_forms_vanish_random():
    rng = random.Random(23)
    for _ in range(30):
        gens = [random_nonzero_polynomial(rng, RXY, deg=3, nterms=3, height=5)
                for _ in range(rng.randint(1, 3))]
        gb = buchberger(ideal(RXY, gens))
        pk = packing(gb.order, gb.ring.nvars)
        mvs = [_Gen(pk.primitive(g)[0], pk) for g in gb.gens]
        # the core's own generators, which the basis keeps, are primitive too
        assert all(gcd(*g.mv.values()) == 1 for g in gb.reducers()[0].get(0, []))
        for i in range(len(mvs)):
            for j in range(i + 1, len(mvs)):
                if mvs[i].lt[0] != mvs[j].lt[0]:
                    continue
                s, _ = _spair(mvs[i], mvs[j], pk, False)
                rem = _nf(s, _index(mvs), pk)[0]
                assert not rem


def test_membership_agrees_with_brute_force_random():
    rng = random.Random(29)
    for _ in range(25):
        gens = [random_nonzero_polynomial(rng, RXY, deg=2, nterms=3, height=4)
                for _ in range(2)]
        basis = ideal(RXY, gens)
        gb = buchberger(basis)
        for _ in range(3):
            if rng.random() < 0.5:
                q = random_polynomial(rng, RXY, deg=2, nterms=2, height=3)
                f = gens[0] * q + gens[1] * random_polynomial(rng, RXY, deg=1, nterms=2)
            else:
                f = random_polynomial(rng, RXY, deg=3, nterms=3, height=4)
            nf_zero = normal_form(f, gb).is_zero() if not f.is_zero() else True
            brute = membership_by_linear_algebra(f, gens, degcap=8)
            if f.is_zero():
                continue
            assert nf_zero == brute


def test_full_module_and_intersection_with_it():
    m = ideal(RXY, [P(RXY, "x*y - 1")])
    f = full_module(RXY, 1)
    assert module_equal(intersect(m, f), m)


def test_reduced_basis_matches_sympy_groebner_random():
    # sympy.groebner is an independent implementation; domain="QQ" makes it
    # return the monic reduced basis rather than a primitive one over ZZ
    import sympy
    ring = Ring.make(nx=3)
    gens = sympy.symbols("x1 x2 x3")
    rng = random.Random(5151)

    def as_set(polys):
        return {frozenset(p.terms.items()) for p in polys}

    for name, order in (("grevlex", grevlex_order()), ("lex", lex_order())):
        for _ in range(15):
            polys = [random_nonzero_polynomial(rng, ring, deg=3, nterms=3, height=5)
                     for _ in range(rng.randint(2, 3))]
            ours = buchberger(ideal(ring, polys, order=ModuleOrder(order, "top")))
            theirs = sympy.groebner(
                [sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                       for m, c in p.terms.items()}, *gens)
                 for p in polys], *gens, order=name, domain="QQ")
            want = [Polynomial(ring, {m: Fraction(int(c.p), int(c.q))
                                      for m, c in sympy.Poly(g, *gens).terms()})
                    for g in theirs.exprs]
            assert as_set(ours.polys()) == as_set(want)


def test_normal_forms_do_not_depend_on_the_memo_or_read_order():
    # a basis memoises each leading term's divisor across its normal forms;
    # the queries read forward on one basis and backward on a second basis
    # of the same input give the remainders sympy.reduced gives, each with
    # the terms the validating constructor would keep
    import sympy
    ring = Ring.make(nx=3)
    gens = sympy.symbols("x1 x2 x3")
    rng = random.Random(2828)

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
            *(g ** e for g, e in zip(gens, m))) for m, c in p.terms.items()), sympy.Integer(0))

    for _ in range(30):
        polys = [random_nonzero_polynomial(rng, ring, deg=3, nterms=3, height=5)
                 for _ in range(rng.randint(2, 3))]
        queries = [sum((p * random_polynomial(rng, ring, deg=1, nterms=2, height=3)
                        for p in polys), Polynomial.zero(ring)) if k % 2 == 0 else
                   random_polynomial(rng, ring, deg=4, nterms=4, height=9) for k in range(10)]
        first, second = buchberger(ideal(ring, polys)), buchberger(ideal(ring, polys))
        forward = [normal_form(q, first) for q in queries]
        backward = [normal_form(q, second) for q in reversed(queries)][::-1]
        theirs = sympy.groebner([expr(p) for p in polys], *gens, order="grevlex", domain="QQ")
        for q, out, back in zip(queries, forward, backward):
            assert out == back
            assert out.terms == Polynomial(ring, dict(out.terms)).terms
            assert all(type(c) is Fraction for c in out.terms.values())
            _, r = sympy.reduced(expr(q), list(theirs.exprs), *gens, order="grevlex",
                                 domain="QQ")
            assert out == Polynomial(ring, {m: Fraction(int(c.p), int(c.q))
                                            for m, c in sympy.Poly(r, *gens).terms()})


# Named systems, typed in: cyclic-4 and cyclic-5 (elementary cyclic sums
# and x1*...*xn - 1) and katsura-4 over u0..u4 named x1..x5.
NAMED_SYSTEMS = {
    "cyclic4": (4, ["x1 + x2 + x3 + x4",
                    "x1*x2 + x2*x3 + x3*x4 + x4*x1",
                    "x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2",
                    "x1*x2*x3*x4 - 1"]),
    "cyclic5": (5, ["x1 + x2 + x3 + x4 + x5",
                    "x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x1",
                    "x1*x2*x3 + x2*x3*x4 + x3*x4*x5 + x4*x5*x1 + x5*x1*x2",
                    "x1*x2*x3*x4 + x2*x3*x4*x5 + x3*x4*x5*x1 + x4*x5*x1*x2"
                    " + x5*x1*x2*x3",
                    "x1*x2*x3*x4*x5 - 1"]),
    "katsura4": (5, ["x1 + 2*x2 + 2*x3 + 2*x4 + 2*x5 - 1",
                     "x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 + 2*x5^2 - x1",
                     "2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5 - x2",
                     "x2^2 + 2*x1*x3 + 2*x2*x4 + 2*x3*x5 - x3",
                     "2*x2*x3 + 2*x1*x4 + 2*x2*x5 - x4"]),
}


@pytest.mark.parametrize("name", sorted(NAMED_SYSTEMS))
def test_named_systems_match_sympy_groebner(name):
    import sympy
    n, texts = NAMED_SYSTEMS[name]
    ring = Ring.make(nx=n)
    symbols = sympy.symbols(" ".join(ring.names))
    polys = [P(ring, t) for t in texts]
    ours = buchberger(ideal(ring, polys, order=ModuleOrder(grevlex_order(), "top")))
    theirs = sympy.groebner([sympy.sympify(t.replace("^", "**")) for t in texts],
                            *symbols, order="grevlex", domain="QQ")
    want = {frozenset((m, Fraction(int(c.p), int(c.q)))
                      for m, c in sympy.Poly(g, *symbols).terms())
            for g in theirs.exprs}
    assert {frozenset(p.terms.items()) for p in ours.polys()} == want


def _metamorphic_systems():
    """cyclic-4, katsura-4 and 10 seeded ideals, as (ring, polys, orders)."""
    lex_and_more = (lex_order(), grevlex_order(), block_order(2))
    out = []
    for name in ("cyclic4", "katsura4"):
        n, texts = NAMED_SYSTEMS[name]
        ring = Ring.make(nx=n)
        # a lex basis of katsura-4 takes minutes here and in sympy.groebner
        orders = (grevlex_order(), block_order(1), block_order(2)) \
            if name == "katsura4" else lex_and_more
        out.append((ring, [P(ring, t) for t in texts], orders))
    rng = random.Random(4242)
    ring = Ring.make(nx=3)
    for _ in range(10):
        polys = [random_nonzero_polynomial(rng, ring, deg=2, nterms=3, height=5)
                 for _ in range(rng.randint(2, 3))]
        out.append((ring, polys, lex_and_more))
    return out


def _permute(polys, perm):
    """Rename variable i to perm[i]."""
    return [Polynomial(p.ring, {tuple(m[perm.index(i)] for i in range(len(m))): c
                                for m, c in p.terms.items()}) for p in polys]


def test_basis_is_the_same_ideal_under_every_order():
    for ring, polys, orders in _metamorphic_systems():
        bases = [buchberger(ideal(ring, polys, order=ModuleOrder(o, "top")))
                 for o in orders]
        for basis in bases:
            assert module_equal(basis, ideal(ring, polys))
        assert module_equal(bases[0], bases[1]) and module_equal(bases[1], bases[2])


def test_basis_is_the_same_ideal_under_a_permutation_of_variables():
    rng = random.Random(4343)
    for ring, polys, _ in _metamorphic_systems():
        perm = list(range(ring.nvars))
        while perm == sorted(perm):
            rng.shuffle(perm)
        basis = buchberger(ideal(ring, _permute(polys, perm)))
        inverse = [perm.index(i) for i in range(ring.nvars)]
        back = _permute(basis.polys(), inverse)
        assert _permute(back, perm) == basis.polys()
        assert module_equal(ideal(ring, back), ideal(ring, polys))


def _nonzero_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 7))


def test_rational_rescaling_commutes_with_the_integer_core():
    # the core works on primitive integer vectors, so scaling inputs by
    # rationals must change neither the reduced basis nor normal forms
    # beyond the same factor
    rng = random.Random(3131)
    ring = Ring.make(nx=3)
    for trial in range(24):
        j = 1 + trial % 2
        order = ModuleOrder((grevlex_order(), lex_order())[trial % 3 == 0], "top")
        count = rng.randint(1, 3)
        gens = []
        while len(gens) < count:
            v = random_vec(rng, ring, j, deg=2, nterms=3, height=6)
            if not v.is_zero():
                gens.append(v)
        gb = buchberger(SubmoduleBasis(ring, j, gens, order=order))
        scaled = [g.scale(_nonzero_rational(rng)) for g in gens]
        assert buchberger(SubmoduleBasis(ring, j, scaled, order=order)).gens == gb.gens
        for _ in range(3):
            f = random_vec(rng, ring, j, deg=3, nterms=4, height=9)
            c = _nonzero_rational(rng)
            assert normal_form(f.scale(c), gb) == normal_form(f, gb).scale(c)
            if j == 1:
                assert normal_form(f[0] * c, gb) == normal_form(f[0], gb) * c
