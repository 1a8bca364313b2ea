"""Linear differential operators with polynomial coefficients.

An operator maps vectors of N polynomials to a single polynomial:
L(f) = sum over terms a(x) * d^alpha f_i.  A scalar operator, such as a
vector field, is the N = 1 case; it composes with any operator, and the
composition is materialized eagerly into the (multi-index, component,
coefficient) normal form by Leibniz expansion so operator identities can
be checked by canonical equality.

The tangent frame of a stratum rewrites away base-variable derivatives:
Delta^D L = sum over |alpha| <= M of X^alpha composed with an operator
that differentiates graph variables only.  Each piece is keyed by its
full-length multi-index alpha, X^alpha = X_1^alpha_1 o X_2^alpha_2 o ...
At top order (Delta d_x)^a is (X - Y)^a, expanded as one item per X-count
k <= a: every choice of X or -Y with the same counts gives the same word
and tail, and the push of a coefficient through X^k is linear, so the
merge is exact.  The expansion never divides by Delta; the exponent D is
whatever the recursion incurs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import perm, prod

from .errors import DomainError, StructuralError
from .groebner import full_module, normal_form, syzygy_module
from .poly import Polynomial, PolyVec, binom
from .quasimonic import QuasiMonic
from .vanishing import complexify


def _multi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _multi_binom(b, g):
    out = 1
    for x, y in zip(b, g):
        out *= binom(x, y)
    return out


def _sub_multis(beta):
    """All gamma <= beta componentwise."""
    ranges = [range(x + 1) for x in beta]
    return [tuple(g) for g in product(*ranges)]


class LinearDiffOp:
    """Operator on N-component vectors: L(f) = sum a(x) d^alpha f_i."""

    __slots__ = ("ring", "ncomps", "terms")

    def __init__(self, ring, ncomps, terms):
        if ncomps < 1:
            raise StructuralError("need at least one component")
        self.ring = ring
        self.ncomps = ncomps
        self.terms = {}
        for (alpha, i), c in terms.items():
            if len(alpha) != ring.nvars:
                raise StructuralError("multi-index length mismatch")
            if not (0 <= i < ncomps):
                raise StructuralError("component index out of range")
            if isinstance(c, (int, Fraction)):
                c = Polynomial.constant(ring, c)
            if c.is_zero():
                continue
            self.terms[(tuple(alpha), i)] = c

    @classmethod
    def derivation(cls, ring, coeffs):
        """First-order scalar operator sum coeffs[i] * d_i (a vector field)."""
        terms = {}
        for i, c in coeffs.items():
            alpha = tuple(1 if k == i else 0 for k in range(ring.nvars))
            terms[(alpha, 0)] = c
        return cls(ring, 1, terms)

    def is_zero(self):
        return not self.terms

    def order(self):
        return max((sum(a) for (a, _) in self.terms), default=-1)

    def derivative_vars(self):
        used = set()
        for (alpha, _) in self.terms:
            for idx, e in enumerate(alpha):
                if e:
                    used.add(idx)
        return used

    def coeff(self, alpha, i):
        return self.terms.get((tuple(alpha), i), Polynomial.zero(self.ring))

    def apply(self, vec):
        if len(vec) != self.ncomps:
            raise StructuralError("vector arity %d, operator expects %d"
                                  % (len(vec), self.ncomps))
        if vec.ring != self.ring:
            raise StructuralError("vector over wrong ring")
        out = Polynomial.zero(self.ring)
        for (alpha, i), c in self.terms.items():
            out = out + c * vec[i].diff_multi(alpha)
        return out

    def apply_monomial(self, mono, comp):
        """L on the monomial `mono` in component `comp`: a * d^alpha gives a
        falling factorial times a, shifted by mono - alpha."""
        out = {}
        for (alpha, i), c in self.terms.items():
            f = prod(map(perm, mono, alpha)) if i == comp else 0
            for m, v in (c.terms.items() if f else ()):
                k = tuple(a + b - d for a, b, d in zip(m, mono, alpha))
                out[k] = out.get(k, 0) + f * v
        return Polynomial(self.ring, out)

    def apply_poly(self, f):
        return self.apply(PolyVec([f]))

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Polynomial.zero(self.ring)) + c
        return LinearDiffOp(self.ring, self.ncomps, terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Polynomial.zero(self.ring)) - c
        return LinearDiffOp(self.ring, self.ncomps, terms)

    def scale(self, p):
        """Left multiplication by a polynomial (or rational)."""
        return LinearDiffOp(self.ring, self.ncomps,
                            {k: c * p for k, c in self.terms.items()})

    def compose(self, inner):
        """self after inner, expanded by Leibniz; self must be scalar."""
        if self.ncomps != 1:
            raise StructuralError("only a scalar operator composes with another")
        terms = {}
        for (beta, _), c in self.terms.items():
            for (alpha, i), a in inner.terms.items():
                for gamma in _sub_multis(beta):
                    coeff = c * a.diff_multi(gamma) * _multi_binom(beta, gamma)
                    if coeff.is_zero():
                        continue
                    key = (_multi_add(tuple(x - y for x, y in zip(beta, gamma)), alpha), i)
                    terms[key] = terms.get(key, Polynomial.zero(self.ring)) + coeff
        return LinearDiffOp(self.ring, inner.ncomps, terms)

    def __eq__(self, other):
        return (isinstance(other, LinearDiffOp) and self.ring == other.ring
                and self.ncomps == other.ncomps and self.terms == other.terms)

    __hash__ = None

    def text(self):
        lines = []
        for (alpha, i), c in sorted(self.terms.items(),
                                    key=lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1])):
            lines.append("%s ; (%s) ; %d" % (c.text(), ",".join(str(e) for e in alpha), i + 1))
        return "\n".join(lines)

    def __repr__(self):
        return "LinearDiffOp(order=%d, %d terms)" % (self.order(), len(self.terms))


def zero_op(ring, ncomps):
    return LinearDiffOp(ring, ncomps, {})


def identity_component_op(ring, ncomps, i, coeff=None):
    z = (0,) * ring.nvars
    return LinearDiffOp(ring, ncomps, {(z, i): coeff if coeff is not None else 1})


# -- module of vectors annihilated after arbitrary polynomial multiples ----

def mclosure_poly_coeffs(op):
    """Generators of {P : L(Q P) = 0 identically for all polynomials Q}.

    Recursion on the order: the top-order layer contributes the linear
    equations sum_i a_gamma^i P_i = 0, the divergence-form rewrite drops
    the order, and the accumulated system is solved over the ring.
    """
    ring, n = op.ring, op.ncomps
    cols = [[] for _ in range(n)]   # cols[i]: the coefficients of P_i
    cur = op
    while not cur.is_zero():
        s = cur.order()
        layer = sorted({alpha for (alpha, _) in cur.terms if sum(alpha) == s})
        for alpha in layer:
            for i, col in enumerate(cols):
                col.append(cur.coeff(alpha, i))
        if s == 0:
            break
        for alpha in layer:
            for i in range(n):
                a = cur.coeff(alpha, i)
                if a.is_zero():
                    continue
                expand = LinearDiffOp(ring, 1, {(alpha, 0): 1}).compose(
                    identity_component_op(ring, n, i, a))
                cur = cur - expand
        if not cur.is_zero() and cur.order() >= s:
            raise DomainError("internal: divergence rewrite did not drop the order")
    if not cols[0]:
        return full_module(ring, n)
    return syzygy_module([PolyVec(col) for col in cols])


# -- tangent frames ---------------------------------------------------------

class TangentFrame:
    """Vector fields X_j = Delta * d_xj + sum b_j,mu * d_y,mu tangent to a
    graph stratum, with Delta the product of the annihilators' derivatives."""

    def __init__(self, ring, x_indices, delta, fields, y_parts, annihilators):
        self.ring = ring
        self.x_indices = tuple(x_indices)
        self.delta = delta
        self.fields = list(fields)      # X_j, parallel to x_indices
        self.y_parts = list(y_parts)    # Y_j = X_j - Delta d_xj
        self.annihilators = list(annihilators)

    def check_tangency(self):
        for x_op in self.fields:
            for qm in self.annihilators:
                if not x_op.apply_poly(qm.poly).is_zero():
                    raise DomainError("frame field is not tangent to the stratum")
        return True


def build_tangent_frame(stratum, vanishing=None):
    """Tangent frame over a stratum's graph variables (y and z blocks).

    Annihilators whose distinguished derivative vanishes on the stratum
    are replaced by that derivative until it does not; the test is an
    exact normal form against the stratum's vanishing ideal.
    """
    ring = stratum.ring
    if vanishing is None:
        vanishing = complexify(stratum)
    gb = vanishing.groebner()

    anns = []
    for qm in stratum.annihilators():
        p = qm.poly
        while True:
            dp = p.diff(qm.var)
            if dp.is_zero():
                raise DomainError(
                    "annihilator became independent of its graph variable; bad stratum input")
            if normal_form(dp, gb).is_zero():
                p = dp
                continue
            break
        anns.append(QuasiMonic(p, qm.var))

    delta = Polynomial.one(ring)
    derivs = []
    for qm in anns:
        d = qm.poly.diff(qm.var)
        derivs.append(d)
        delta = delta * d

    fields = []
    y_parts = []
    for j in stratum.x_indices():
        coeffs = {j: delta}
        ycoeffs = {}
        for mu, qm in enumerate(anns):
            other = Polynomial.one(ring)
            for nu in range(len(anns)):
                if nu != mu:
                    other = other * derivs[nu]
            b = -(other * anns[mu].poly.diff(j))
            if not b.is_zero():
                coeffs[qm.var] = b
                ycoeffs[qm.var] = b
        x_op = LinearDiffOp.derivation(ring, coeffs)
        fields.append(x_op)
        y_parts.append(LinearDiffOp.derivation(ring, ycoeffs))

    frame = TangentFrame(ring, stratum.x_indices(), delta, fields, y_parts, anns)
    frame.check_tangency()
    return frame


# -- elimination of x-derivatives -------------------------------------------
#
# A key alpha is a multi-index over all ring variables, zero off the x block,
# and stands for X^alpha = X_1^alpha_1 o X_2^alpha_2 o ...  The x-variables
# come first, so X_j is frame.fields[j] and Y_j is frame.y_parts[j].

def _compose(fields, alpha, op):
    """Materialize F_1^alpha_1 o F_2^alpha_2 o ... o op for fields F."""
    for f, e in reversed(list(zip(fields, alpha))):
        for _ in range(e):
            op = f.compose(op)
    return op


def _push_coeff(frame, c, alpha, op):
    """Exact decomposition of c * X^alpha o op into {u: y-only op} with
    sum X^u o op_u, every u <= alpha.  X_j, j the first index of alpha,
    is peeled off by c X_j W = X_j (c W) - (X_j c) W; the keys of W's
    decomposition are zero before j, so X_j o X^u is X^(u + e_j)."""
    if c.is_zero():
        return {}
    j = next((j for j, e in enumerate(alpha) if e), None)
    if j is None:
        return {alpha: op.scale(c)}
    rest = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
    out = {}
    for u, o in _push_coeff(frame, c, rest, op).items():
        key = u[:j] + (u[j] + 1,) + u[j + 1:]
        out[key] = out.get(key, zero_op(frame.ring, o.ncomps)) + o
    xc = frame.fields[j].apply_poly(c)
    for u, o in _push_coeff(frame, xc, rest, op).items():
        out[u] = out.get(u, zero_op(frame.ring, o.ncomps)) - o
    return {u: o for u, o in out.items() if not o.is_zero()}


def _rewrite(op, frame):
    """(D, {alpha: y-only op}) with Delta^D op = sum X^alpha o op_alpha.

    At top order Delta d_xj is X_j - Y_j, so a top term a d_x^ax d_y^ay
    of order m, times Delta^m, is a Delta^|ay| (X - Y)^ax d_y^ay.  Every
    choice of X or -Y per factor with X-counts k gives the same word X^k
    and the same tail Y^(ax-k) o d_y^ay, so the expansion has one item per
    k <= ax, with coefficient (-1)^|ax-k| binom(ax, k); _push_coeff is
    linear in its coefficient, so the merged items push exactly as the
    2^|ax| choices would.  What the items miss is of lower order and
    recurses."""
    xs = set(frame.x_indices)
    if op.is_zero():
        return 0, {}
    if not (op.derivative_vars() & xs):
        return 0, {(0,) * op.ring.nvars: op}
    ring, m, delta = op.ring, op.order(), frame.delta
    items = []
    for (alpha, i), a in op.terms.items():
        if sum(alpha) < m:
            continue
        ax = tuple(e if j in xs else 0 for j, e in enumerate(alpha))
        ay = tuple(e - x for e, x in zip(alpha, ax))
        base = LinearDiffOp(ring, op.ncomps, {(ay, i): 1})
        c0 = a * delta ** sum(ay)
        for k in _sub_multis(ax):
            tail = _compose(frame.y_parts, [x - e for x, e in zip(ax, k)], base)
            sign = (-1) ** (sum(ax) - sum(k))
            items.append((c0 * (sign * _multi_binom(ax, k)), k, tail))

    acc = zero_op(ring, op.ncomps)
    for c, k, tail in items:
        acc = acc + _compose(frame.fields, k, tail).scale(c)
    rest = op.scale(delta ** m) - acc
    if not rest.is_zero() and rest.order() >= m:
        raise DomainError("internal: top order did not cancel in the rewrite")

    d_rest, buckets = _rewrite(rest, frame)
    scale = delta ** d_rest
    for c, k, tail in items:
        for u, o in _push_coeff(frame, c * scale, k, tail).items():
            buckets[u] = buckets.get(u, zero_op(ring, op.ncomps)) + o
    return d_rest + m, {u: o for u, o in buckets.items() if not o.is_zero()}


def eliminate_x_derivatives(op, frame):
    """(D, {alpha: L_alpha}) with Delta^D L = sum X^alpha o L_alpha exactly,
    every L_alpha free of x-derivatives; verified by canonical equality."""
    d, out = _rewrite(op, frame)
    if d and frame.delta.is_constant():
        c = frame.delta.constant_value() ** d
        if c != 1:
            out = {a: o.scale(Fraction(1) / c) for a, o in out.items()}
        d = 0
    check = zero_op(frame.ring, op.ncomps)
    for alpha, o in out.items():
        check = check + _compose(frame.fields, alpha, o)
    if not (check == op.scale(frame.delta ** d)):
        raise DomainError("internal: rewrite identity failed")
    if any(o.derivative_vars() & set(frame.x_indices) for o in out.values()):
        raise DomainError("internal: rewrite left x-derivatives behind")
    return d, out


# -- coefficient lift --------------------------------------------------------

def lift_operator(entries, ring, ncomps, nxp, nxq, nz):
    """Operator with each semialgebraic coefficient slot replaced by a z-variable.

    entries: (lam, comp, ax, ay, omega) with lam a 1-based coefficient
    index, ax a multi-index over the first block (length nxp), ay over
    the second (length nxq) and omega rational.  The result is linear in
    the z-variables and takes no z-derivatives.
    """
    if ring.nvars != nxp + nxq + nz:
        raise StructuralError("ring size does not match the declared blocks")
    terms = {}
    for (lam, comp, ax, ay, omega) in entries:
        if not (1 <= lam <= nz):
            raise StructuralError("coefficient index out of range")
        if len(ax) != nxp or len(ay) != nxq:
            raise StructuralError("multi-index blocks of wrong length")
        alpha = tuple(ax) + tuple(ay) + (0,) * nz
        zvar = Polynomial.variable(ring, nxp + nxq + (lam - 1))
        key = (alpha, comp)
        add = zvar * Fraction(omega)
        terms[key] = terms.get(key, Polynomial.zero(ring)) + add
    return LinearDiffOp(ring, ncomps, terms)
