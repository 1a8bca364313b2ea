import random
from fractions import Fraction

import pytest

from diffmod.errors import DomainError, StructuralError
from diffmod.orders import grevlex_order, lex_order
from diffmod.poly import Polynomial, PolyVec, Ring, linear_change_of_vars, mat_inverse

from conftest import random_polynomial

R2 = Ring.make(nx=2)          # x1, x2
RXY = Ring(("x", "y"), "xx")
RXYZ = Ring(("x", "y", "z"), "xxx")


def P(ring, s):
    return Polynomial.parse(ring, s)


def test_mono_cmp_lex_first_exponent_dominates():
    # x^2 y vs x y^3
    assert lex_order().cmp((2, 1), (1, 3)) == 1


def test_mono_cmp_grevlex_degree_dominates():
    assert grevlex_order().cmp((2, 1), (1, 3)) == -1


def test_mono_cmp_reflexive():
    for order in (lex_order(), grevlex_order()):
        assert order.cmp((3, 5), (3, 5)) == 0


def test_mono_cmp_length_mismatch():
    with pytest.raises(StructuralError):
        lex_order().cmp((1,), (1, 2))


def test_poly_mul_difference_of_squares():
    x = Polynomial.variable(RXY, "x")
    one = Polynomial.one(RXY)
    assert (x + one) * (x - one) == x * x - one


def test_poly_add_identity():
    f = P(RXY, "3*x^2*y - 1/2*y + 7")
    assert f + Polynomial.zero(RXY) == f


def test_poly_mul_expand_by_hand():
    # (x^2 - z y^2) * y = x^2 y - z y^3, verified term by term
    f = P(RXYZ, "x^2 - z*y^2")
    y = Polynomial.variable(RXYZ, "y")
    g = f * y
    assert g.terms.get((2, 1, 0), 0) == 1
    assert g.terms.get((0, 3, 1), 0) == -1
    assert len(g.terms) == 2


def test_poly_diff_simple():
    f = P(RXY, "y^2")
    assert f.diff_multi((0, 1)) == P(RXY, "2*y")
    assert P(RXY, "x*y").diff_multi((1, 1)) == Polynomial.one(RXY)


def test_poly_diff_iterated_matches_single_steps():
    f = P(RXY, "x^3*y")
    two_step = f.diff(0).diff(0)
    assert f.diff_multi((2, 0)) == two_step == P(RXY, "6*x*y")


def test_poly_eval_on_example_surface():
    f = P(RXYZ, "x^2 - z*y^2")
    assert f.evaluate([1, 1, 1]) == 0


def test_poly_eval_constant_and_rational():
    assert Polynomial.constant(RXY, 5).evaluate([Fraction(9), Fraction(-3)]) == 5
    f = P(RXY, "x + y")
    assert f.evaluate([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)


def test_linear_change_identity_and_swap():
    f = Polynomial.variable(R2, "x1")
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    assert linear_change_of_vars(f, ident) == f
    assert linear_change_of_vars(f, swap) == Polynomial.variable(R2, "x2")


def test_linear_change_shear():
    f = P(R2, "x1^2")
    T = [[1, 1], [0, 1]]
    assert linear_change_of_vars(f, T) == P(R2, "x1^2 + 2*x1*x2 + x2^2")


def test_linear_change_singular_rejected():
    with pytest.raises(DomainError):
        linear_change_of_vars(Polynomial.one(R2), [[1, 1], [1, 1]])


def test_parse_print_roundtrip_random():
    rng = random.Random(7)
    ring = Ring.make(nx=2, ny=1, nz=1)
    for _ in range(1000):
        f = random_polynomial(rng, ring, deg=5, nterms=6)
        assert Polynomial.parse(ring, f.text()) == f


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        f = random_polynomial(rng, RXYZ)
        g = random_polynomial(rng, RXYZ)
        h = random_polynomial(rng, RXYZ)
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)


def test_leibniz_rule_random():
    rng = random.Random(13)
    for _ in range(100):
        f = random_polynomial(rng, RXY)
        g = random_polynomial(rng, RXY)
        i = rng.randrange(2)
        assert (f * g).diff(i) == f.diff(i) * g + f * g.diff(i)


@pytest.mark.parametrize("rows", [[[1, 2]], [[1], [2]], [[1, 0], [0]]])
def test_mat_inverse_rejects_a_non_square_matrix(rows):
    with pytest.raises(StructuralError, match="not square"):
        mat_inverse(rows)


def test_linear_change_inverse_roundtrip_random():
    rng = random.Random(17)
    count = 0
    while count < 50:
        T = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        try:
            Tinv = mat_inverse(T)
        except DomainError:
            continue
        count += 1
        f = random_polynomial(rng, RXYZ, deg=3, nterms=4)
        assert linear_change_of_vars(linear_change_of_vars(f, T), Tinv) == f


def test_polyvec_arith_and_units():
    v = PolyVec.unit(RXY, 3, 1)
    w = v.scale(P(RXY, "x"))
    assert w[1] == P(RXY, "x") and w[0].is_zero()
    assert (v - v).is_zero()


def test_polyvec_arith_rejects_a_length_mismatch():
    # zip would silently drop the extra component
    one = Polynomial.one(RXY)
    long, short = PolyVec([one, one]), PolyVec([one])
    for a, b in ((long, short), (short, long)):
        with pytest.raises(StructuralError, match="length mismatch"):
            a + b
        with pytest.raises(StructuralError, match="length mismatch"):
            a - b


def test_parse_rejects_garbage():
    with pytest.raises(StructuralError):
        Polynomial.parse(RXY, "x +* y")
    with pytest.raises(StructuralError):
        Polynomial.parse(RXY, "w + 1")


@pytest.mark.parametrize("text, message", [
    (" \t ", "empty polynomial text"),
    ("x + 2%y - 1", "bad character in polynomial at '%y - 1'"),
    ("x*y +", "unexpected end of polynomial"),
    ("x - 1/0*y", "bad rational constant"),
    ("x + 2/", "bad rational constant"),
    ("x^y", "bad exponent"),
    ("y*x^", "bad exponent"),
    ("x + ^y", "unexpected token '^'"),
    ("--x", "unexpected token '-'"),
    ("x y", "expected + or - at 'y'"),
    ("x^2^3", "expected + or - at '^'"),
    ("x/2", "expected + or - at '/'"),
    ("x + y*z1", "unknown variable 'z1'"),
    # the first bad token decides
    ("x*w - 1/0", "unknown variable 'w'"),
    ("1/0*w + %", "bad character in polynomial at ' %'"),
], ids=["empty", "bad-character", "end", "zero-denominator", "no-denominator", "name-exponent",
        "no-exponent", "operator-for-factor", "two-signs", "no-operator", "power-of-power",
        "divide-by", "unknown-variable", "first-error-wins", "tokens-before-terms"])
def test_parse_error_messages(text, message):
    with pytest.raises(StructuralError) as exc:
        Polynomial.parse(RXY, text)
    assert str(exc.value) == message


def _random_poly_text(rng, names):
    # repeated monomials, cancelling terms, zero powers and num/den constants
    def factor():
        r = rng.random()
        if r < 0.2:
            return str(rng.randint(0, 9))
        if r < 0.35:
            return "%d/%d" % (rng.randint(0, 9), rng.randint(1, 9))
        name = rng.choice(names)
        return name if r < 0.6 else "%s^%d" % (name, rng.randint(0, 3))
    terms = ["*".join(factor() for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(1, 7))]
    terms += [terms[rng.randrange(len(terms))] for _ in range(rng.randint(0, 2))]
    rng.shuffle(terms)
    text = rng.choice(["", "-", "+"]) + terms[0]
    for t in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + t
    return text


def test_parse_matches_sympy_random():
    import sympy
    ring = Ring.make(nx=2, ny=1)
    symbols = sympy.symbols(" ".join(ring.names))
    rng = random.Random(29)
    texts = ["x1*x1^2 - x1^3 + 0*y1", "-1/2*x1^0 + 3/6", "x2 - x2 + y1^0*y1"]
    texts += [_random_poly_text(rng, ring.names) for _ in range(300)]
    for text in texts:
        theirs = sympy.Poly(sympy.sympify(text.replace("^", "**")), *symbols)
        expected = {m: Fraction(int(c.p), int(c.q)) for m, c in theirs.terms() if c}
        assert Polynomial.parse(ring, text).terms == expected, text


def test_parse_keeps_huge_exponents():
    # the Groebner core's entry check rejects exponents of 2^31 and over
    f = Polynomial.parse(R2, "x1^5000000000*x2 - 1")
    assert f.terms == {(5000000000, 1): 1, (0, 0): -1}
