import random
from fractions import Fraction

import pytest

from diffmod.errors import DomainError, StructuralError
from diffmod.groebner import SubmoduleBasis, module_equal
from diffmod.operators import (LinearDiffOp, build_tangent_frame,
                               eliminate_x_derivatives, lift_operator, zero_op)
from diffmod.poly import Polynomial, PolyVec, Ring
from diffmod.vanishing import Stratum

from conftest import random_polynomial, random_vec
from oracle import mclosure_poly_coeffs

RXY = Ring.make(nx=1, ny=1)     # x1, y1


def P(ring, s):
    return Polynomial.parse(ring, s)


def op_dy(ring, ncomps=1, comp=0):
    alpha = tuple(1 if ring.blocks[i] == "y" else 0 for i in range(ring.nvars))
    return LinearDiffOp(ring, ncomps, {(alpha, comp): 1})


def test_apply_examples():
    ring = RXY
    L = op_dy(ring)
    assert L.apply(PolyVec([P(ring, "y1^2")])) == P(ring, "2*y1")

    L2 = LinearDiffOp(ring, 2, {((0, 0), 0): 1, ((0, 0), 1): -1})
    q = random_polynomial(random.Random(5), ring)
    assert L2.apply(PolyVec([q, q])).is_zero()

    L3 = LinearDiffOp(ring, 1, {((1, 0), 0): P(ring, "x1")})
    assert L3.apply(PolyVec([P(ring, "x1^2")])) == P(ring, "2*x1^2")



def test_apply_monomial_matches_apply():
    # seeded random operators with up to three components and derivative
    # orders up to 2 per variable, on monomials that some orders exceed
    rng = random.Random(47)
    ring = Ring.make(nx=1, ny=2, nz=1)
    multi = 0
    for _ in range(40):
        j = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            alpha = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            terms[(alpha, rng.randrange(j))] = random_polynomial(rng, ring, deg=2, nterms=3)
        op = LinearDiffOp(ring, j, terms)
        for _ in range(3):
            mono = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
            for comp in range(j):
                vec = PolyVec([Polynomial.monomial(ring, mono) if c == comp
                               else Polynomial.zero(ring) for c in range(j)])
                want = op.apply(vec)
                assert op.apply_monomial(mono, comp) == want
                multi += j > 1 and not want.is_zero()
    assert multi >= 40

def test_apply_is_linear():
    rng = random.Random(9)
    ring = RXY
    L = LinearDiffOp(ring, 2, {((1, 0), 0): P(ring, "x1"), ((0, 2), 1): P(ring, "y1")})
    for _ in range(20):
        v = random_vec(rng, ring, 2)
        w = random_vec(rng, ring, 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert L.apply(v.scale(Polynomial.constant(ring, c)) + w) == \
            L.apply(v) * c + L.apply(w)


def test_scalar_op_composition_leibniz():
    ring = RXY
    dx = LinearDiffOp(ring, 1, {((1, 0), 0): 1})
    a = P(ring, "x1^2*y1")
    inner = LinearDiffOp(ring, 1, {((0, 0), 0): a})
    comp = dx.compose(inner)
    # d_x (a f) = a' f + a d_x f
    rng = random.Random(31)
    for _ in range(10):
        f = random_polynomial(rng, ring)
        assert comp.apply(PolyVec([f])) == a.diff(0) * f + a * f.diff(0)
    # only a scalar operator composes: a vector one has no single output to feed
    with pytest.raises(StructuralError):
        LinearDiffOp(ring, 2, {((1, 0), 1): 1}).compose(inner)


def test_mclosure_identity_difference():
    ring = Ring.make(nx=1)
    L = LinearDiffOp(ring, 2, {(((0,)), 0): 1, (((0,)), 1): -1})
    basis = mclosure_poly_coeffs(L)
    want = SubmoduleBasis(ring, 2, [PolyVec([Polynomial.one(ring), Polynomial.one(ring)])])
    assert module_equal(basis, want)


def test_mclosure_ddx_zero_module():
    ring = Ring.make(nx=1)
    L = LinearDiffOp(ring, 1, {((1,), 0): 1})
    basis = mclosure_poly_coeffs(L)
    assert not basis.gens


def test_mclosure_ddx_difference():
    ring = Ring.make(nx=1)
    L = LinearDiffOp(ring, 2, {((1,), 0): 1, ((1,), 1): -1})
    basis = mclosure_poly_coeffs(L)
    want = SubmoduleBasis(ring, 2, [PolyVec([Polynomial.one(ring), Polynomial.one(ring)])])
    assert module_equal(basis, want)
    # generators satisfy L(Q g) = 0 for random Q
    rng = random.Random(17)
    for g in basis.gens:
        for _ in range(20):
            q = random_polynomial(rng, ring, deg=3)
            assert L.apply(g.scale(q)).is_zero()


def _parabola_stratum():
    # graph y1 = x1^2 over the whole line
    ring = Ring.make(nx=1, ny=1)
    return Stratum(n=1, m=1, p=0,
                   anns_y=[P(ring, "y1 - x1^2")],
                   witness=[Fraction(1), Fraction(1)], ring=ring)


def _sqrt_stratum():
    # y1^2 = x1 branch through (1, 1)
    ring = Ring.make(nx=1, ny=1)
    return Stratum(n=1, m=1, p=0,
                   anns_y=[P(ring, "y1^2 - x1")],
                   witness=[Fraction(1), Fraction(1)], ring=ring)


def test_tangent_frame_sqrt():
    st = _sqrt_stratum()
    frame = build_tangent_frame(st)
    ring = st.ring
    # Delta = 2 y1; X_1 = 2 y1 d_x + d_y kills y1^2 - x1
    assert frame.delta == P(ring, "2*y1")
    xf = frame.fields[0]
    assert xf.apply_poly(P(ring, "y1^2 - x1")).is_zero()
    assert xf.apply_poly(P(ring, "x1")) == P(ring, "2*y1")


def test_tangent_frame_monic_graph():
    st = _parabola_stratum()
    frame = build_tangent_frame(st)
    ring = st.ring
    assert frame.delta == Polynomial.one(ring)
    # X_1 = d_x + g'(x) d_y for g = x^2
    assert frame.fields[0].apply_poly(P(ring, "y1")) == P(ring, "2*x1")
    assert frame.fields[0].apply_poly(P(ring, "y1 - x1^2")).is_zero()


def test_tangent_frame_no_graph_vars():
    ring = Ring.make(nx=2)
    st = Stratum(n=2, m=0, p=0, ring=ring, witness=[0, 0])
    frame = build_tangent_frame(st)
    assert frame.delta == Polynomial.one(ring)
    f = P(ring, "x1^3*x2")
    assert frame.fields[0].apply_poly(f) == f.diff(0)
    assert frame.fields[1].apply_poly(f) == f.diff(1)


def test_eliminate_x_derivatives_y_only_noop():
    st = _sqrt_stratum()
    frame = build_tangent_frame(st)
    ring = st.ring
    L = op_dy(ring)
    d, fam = eliminate_x_derivatives(L, frame)
    assert d == 0
    zero_alpha = (0, 0)
    assert set(fam) == {zero_alpha}
    assert fam[zero_alpha] == L


def test_eliminate_x_derivatives_pure_dx_flat():
    ring = Ring.make(nx=1)
    st = Stratum(n=1, m=0, p=0, ring=ring, witness=[0])
    frame = build_tangent_frame(st)
    L = LinearDiffOp(ring, 1, {((1,), 0): 1})
    d, fam = eliminate_x_derivatives(L, frame)
    assert d == 0
    assert fam[(1,)] == LinearDiffOp(ring, 1, {((0,), 0): 1})


def test_eliminate_x_derivatives_sqrt_branch():
    st = _sqrt_stratum()
    frame = build_tangent_frame(st)
    ring = st.ring
    L = LinearDiffOp(ring, 1, {((1, 0), 0): 1})   # d_x
    d, fam = eliminate_x_derivatives(L, frame)
    # identity checked inside; spot-check by application on test vectors
    rng = random.Random(19)
    for s in ("1", "x1", "y1", "x1*y1", "y1^2"):
        v = PolyVec([P(ring, s)])
        lhs = L.apply(v) * frame.delta ** d
        rhs = Polynomial.zero(ring)
        for alpha, La in fam.items():
            inner = La.apply(v)
            accum = inner
            for j, e in enumerate(alpha):
                for _ in range(e):
                    accum = frame.fields[frame.x_indices.index(j)].apply_poly(accum)
            rhs = rhs + accum
        assert lhs == rhs
    for alpha, La in fam.items():
        assert not (La.derivative_vars() & set(frame.x_indices))


def test_rewrite_identity_random_strata():
    rng = random.Random(37)
    for _ in range(10):
        ring = Ring.make(nx=1, ny=1)
        g = random_polynomial(rng, ring, deg=2, nterms=2, height=3)
        g = Polynomial(ring, {m: c for m, c in g.terms.items() if m[1] == 0})
        ann = P(ring, "y1") * P(ring, "y1") - g if rng.random() < 0.5 else \
            P(ring, "y1") - g
        try:
            st = Stratum(n=1, m=1, p=0, ring=ring, anns_y=[ann],
                         witness=None)
        except Exception:
            continue
        from diffmod.vanishing import complexify
        try:
            van = complexify(st)
        except Exception:
            continue
        frame = build_tangent_frame(st, van)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = (rng.randint(0, 1), rng.randint(0, 1))
            coeff = random_polynomial(rng, ring, deg=1, nterms=2, height=2)
            if not coeff.is_zero():
                terms[(alpha, 0)] = coeff
        if not terms:
            continue
        L = LinearDiffOp(ring, 1, terms)
        d, fam = eliminate_x_derivatives(L, frame)
        for _ in range(5):
            v = PolyVec([random_polynomial(rng, ring, deg=2, nterms=3, height=3)])
            lhs = L.apply(v) * frame.delta ** d
            rhs = Polynomial.zero(ring)
            for alpha, La in fam.items():
                accum = La.apply(v)
                for j, e in enumerate(alpha):
                    for _ in range(e):
                        accum = frame.fields[frame.x_indices.index(j)].apply_poly(accum)
                rhs = rhs + accum
            assert lhs == rhs


def test_lift_operator_examples():
    # one coefficient slot: H1(x) d_x f becomes z1 d_x f
    ring = Ring.make(nx=1, ny=0, nz=1)
    L = lift_operator([(1, 0, (1,), (), 1)], ring, 1, 1, 0, 1)
    assert L == LinearDiffOp(ring, 1, {((1, 0), 0): P(ring, "z1")})
    assert L.derivative_vars() == {0}

    ring2 = Ring.make(nx=1, ny=0, nz=2)
    L2 = lift_operator([(1, 0, (1,), (), 1), (2, 0, (0,), (), 1)], ring2, 1, 1, 0, 2)
    want = LinearDiffOp(ring2, 1, {((1, 0, 0), 0): P(ring2, "z1"),
                                   ((0, 0, 0), 0): P(ring2, "z2")})
    assert L2 == want
