"""Harder randomized checks: module Groebner bases, syzygy completeness,
intersection membership, critical-exponent solvability, and nontrivial
end-to-end operator modules with derivative jets."""

import random
from fractions import Fraction

from diffmod.groebner import (SubmoduleBasis, buchberger, critical_l, ideal,
                              intersect, module_equal, normal_form,
                              solve_inhomogeneous, syzygy_module,
                              _Gen, _index, _nf, _spair)
from diffmod.orders import packing
from diffmod.pipeline import (OperatorStratum, StratifiedOperator, main_mclosure)
from diffmod.poly import Polynomial, PolyVec, Ring
from diffmod.vanishing import Stratum

from conftest import (random_columns, random_nonzero_polynomial, random_polynomial,
                      random_vec)
from oracle import vec_membership_by_linear_algebra

RXY = Ring(("x", "y"), "xx")


def P(ring, s):
    return Polynomial.parse(ring, s)


def test_module_groebner_spairs_reduce_to_zero_random():
    rng = random.Random(131)
    for _ in range(40):
        j = rng.randint(2, 3)
        gens = [random_vec(rng, RXY, j, deg=2, nterms=2, height=4)
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = SubmoduleBasis(RXY, j, gens)
        gb = buchberger(basis)
        pk = packing(gb.order, gb.ring.nvars)
        items = [_Gen(pk.primitive(g)[0], pk) for g in gb.gens]
        for i in range(len(items)):
            for k in range(i + 1, len(items)):
                if items[i].lt[0] != items[k].lt[0]:
                    continue
                s, _ = _spair(items[i], items[k], pk, False)
                rem = _nf(s, _index(items), pk)[0]
                assert not rem


def test_syzygy_completeness_random():
    rng = random.Random(137)
    for _ in range(15):
        gens = [random_nonzero_polynomial(rng, RXY, deg=2, nterms=2, height=3)
                for _ in range(rng.randint(2, 3))]
        syz = syzygy_module(gens)
        for s in syz.gens:
            total = Polynomial.zero(RXY)
            for c, g in zip(s.comps, gens):
                total = total + c * g
            assert total.is_zero()
        # brute-force relations of low degree must lie in the computed module
        from oracle import monomials_up_to, nullspace_sparse
        cols = [(k, m) for k in range(len(gens)) for m in monomials_up_to(2, 2)]
        rows = {}
        for ci, (k, m) in enumerate(cols):
            prod = gens[k] * Polynomial.monomial(RXY, m)
            for mono, c in prod.terms.items():
                rows.setdefault(mono, {})[ci] = c
        sols = nullspace_sparse([rows[mono] for mono in sorted(rows)], len(cols))
        gb = syz.groebner()
        for sol in sols:
            comps = [Polynomial.zero(RXY) for _ in gens]
            for ci, c in sol.items():
                k, m = cols[ci]
                comps[k] = comps[k] + Polynomial.monomial(RXY, m, c)
            vec = PolyVec(comps)
            if vec.is_zero():
                continue
            assert normal_form(vec, gb).is_zero()


def test_intersection_membership_equivalence_random():
    rng = random.Random(139)
    for _ in range(10):
        m1 = ideal(RXY, [random_nonzero_polynomial(rng, RXY, deg=2, nterms=2, height=3)
                         for _ in range(2)])
        m2 = ideal(RXY, [random_nonzero_polynomial(rng, RXY, deg=2, nterms=2, height=3)])
        inter = intersect(m1, m2)
        # the elimination leaves the reduced basis, which Buchberger fixes
        assert inter.is_groebner and inter.groebner() is inter
        assert buchberger(inter).gens == inter.gens
        gb1, gb2, gbi = m1.groebner(), m2.groebner(), inter.groebner()
        for _ in range(6):
            # half the probes are engineered members of both ideals
            if rng.random() < 0.5:
                v = m1.gens[0].scale(m2.gens[0][0] *
                                     random_polynomial(rng, RXY, deg=1, nterms=2))
            else:
                v = PolyVec([random_polynomial(rng, RXY, deg=3, nterms=3, height=3)])
            in_both = normal_form(v, gb1).is_zero() and normal_form(v, gb2).is_zero()
            in_inter = normal_form(v, gbi).is_zero()
            assert in_both == in_inter


def test_critical_l_generators_actually_solve():
    rng = random.Random(149)
    ring = Ring.make(nx=2)
    for _ in range(10):
        rows = rng.randint(1, 2)
        ja = rng.randint(1, 2)
        kb = rng.randint(1, 2)
        a = random_columns(rng, ring, rows, ja, deg=2, nterms=2, height=3)
        b = random_columns(rng, ring, rows, kb, deg=2, nterms=2, height=3)
        delta = random_nonzero_polynomial(rng, ring, deg=1, nterms=2, height=3)
        l0, mod = critical_l(a, b, delta)
        dl = delta ** l0
        for gen in mod.gens:
            rhs = PolyVec([Polynomial.zero(ring)] * rows)
            for bk, gk in zip(b, gen.comps):
                rhs = rhs + bk.scale(dl * gk)
            assert solve_inhomogeneous(a, rhs) is not None


def test_main_derivative_jet_at_a_point():
    # the operator f -> 1_{x=0} * f' forces value and derivative to vanish
    # at the origin, so the module is (x^2)
    ring = Ring.make(nx=0, ny=1, nz=1)
    st = Stratum(n=0, m=1, p=1, ring=ring,
                 anns_y=[P(ring, "y1")],
                 anns_z=[P(ring, "z1 - 1")],
                 witness=[0, 1])
    entries = [(1, 0, (), (1,), 1)]
    sop = StratifiedOperator(n=1, j=1, k=1, strata=[OperatorStratum(st, entries)])
    res = main_mclosure(sop, check=True)
    amb = res.basis.ring
    want = ideal(amb, [Polynomial.parse(amb, "x1^2")])
    assert module_equal(res.basis, want)


def test_main_two_component_indicator_on_halfline():
    # L(f1, f2) = 1_{x>0} (f1 - f2): the half-line is dense enough that the
    # components must agree identically
    from diffmod.realroots import SemialgebraicDescription
    from example1 import atom
    ux = Ring.make(nx=1)
    ring = Ring.make(nx=1, ny=0, nz=1)
    st = Stratum(n=1, m=0, p=1, ring=ring,
                 u_desc=SemialgebraicDescription(atom(P(ux, "x1"), ">"), 1),
                 anns_z=[P(ring, "z1 - 1")],
                 witness=[1, 1])
    entries = [(1, 0, (0,), (), 1), (1, 1, (0,), (), -1)]
    sop = StratifiedOperator(n=1, j=2, k=1, strata=[OperatorStratum(st, entries)])
    res = main_mclosure(sop, check=True)
    amb = res.basis.ring
    one = Polynomial.one(amb)
    want = SubmoduleBasis(amb, 2, [PolyVec([one, one])])
    assert module_equal(res.basis, want)


def test_main_halfline_derivative_zero_module():
    # L f = 1_{x>0} f': annihilation on an open set forces the zero module
    from diffmod.realroots import SemialgebraicDescription
    from example1 import atom
    ux = Ring.make(nx=1)
    ring = Ring.make(nx=1, ny=0, nz=1)
    st = Stratum(n=1, m=0, p=1, ring=ring,
                 u_desc=SemialgebraicDescription(atom(P(ux, "x1"), ">"), 1),
                 anns_z=[P(ring, "z1 - 1")],
                 witness=[1, 1])
    entries = [(1, 0, (1,), (), 1)]
    sop = StratifiedOperator(n=1, j=1, k=1, strata=[OperatorStratum(st, entries)])
    res = main_mclosure(sop)
    assert not res.basis.gens
