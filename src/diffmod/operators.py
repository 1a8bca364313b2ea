"""Linear differential operators with polynomial coefficients.

An operator maps vectors of N polynomials to a single polynomial:
L(f) = sum over terms a(x) * d^alpha f_i.  A scalar operator, such as a
vector field, is the N = 1 case; it composes with any operator, and the
composition is materialized eagerly into the (multi-index, component,
coefficient) normal form by Leibniz expansion so operator identities can
be checked by canonical equality.

The tangent frame of a stratum rewrites away base-variable derivatives:
Delta^D L = sum over |alpha| <= M of X^alpha composed with an operator
that differentiates graph variables only, each piece keyed by its
full-length multi-index alpha, X^alpha = X_1^alpha_1 o X_2^alpha_2 o ...
Two closed forms do it.  At top order (Delta d_x)^a is (X - Y)^a, one
word X^k per X-count k <= a, and one Horner expansion in the fields
materializes a sum of words; one Leibniz table of the derivatives X^g(c)
pushes a coefficient c through all the words of a term.  The pieces are
unique as Delta != 0, and D is whatever the recursion incurs.
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


def _multi_binom(b, g):
    return prod(map(binom, b, g))


def _sub_multis(beta):
    """All gamma <= beta componentwise."""
    return list(product(*(range(x + 1) for x in beta)))


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
        return {idx for (alpha, _) in self.terms for idx, e in enumerate(alpha) if e}

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
                    key = (tuple(b - g + a for b, g, a in zip(beta, gamma, alpha)), i)
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

def _lower(r, j):
    """The multi-index r with its j-th count one lower."""
    return r[:j] + (r[j] - 1,) + r[j + 1:]


def _expand(fields, terms, zero):
    """Materialize sum X^alpha o terms[alpha] for fields X by Horner's rule
    in X_1, T_0 + X_1 o (T_1 + X_1 o (T_2 + ...)), each T_e the same sum
    over the later fields: words that share a prefix share its compositions."""
    if not fields or not terms:
        return sum(terms.values(), zero)
    groups = {}
    for alpha, op in terms.items():
        groups.setdefault(alpha[0], {})[alpha[1:]] = op
    out = zero
    for e in range(max(groups), -1, -1):
        out = fields[0].compose(out) + _expand(fields[1:], groups.get(e, {}), zero)
    return out


def _rewrite(op, frame):
    """(D, {alpha: y-only op}) with Delta^D op = sum X^alpha o op_alpha.

    At top order Delta d_xj is X_j - Y_j, so a top term a d_x^ax d_y^ay
    of order m, times Delta^m, is c (X - Y)^ax d_y^ay, c = a Delta^|ay|:
    c times the sum over k <= ax of w_k X^k o Y^(ax-k) o d_y^ay, with
    w_k = (-1)^|ax-k| binom(ax, k), as every choice of X or -Y with
    X-counts k gives that word.  The tail Y^r o d_y^ay is Y_j o Y^(r-e_j),
    j the first nonzero count of r.  What the words miss is of lower order
    and recurses.  Then c X^k o W = sum over g <= k of (-1)^|g| binom(k, g)
    X^(k-g) o (D_g W) pushes c through the words, with one table per term:
    D_g = X_n^g_n ... X_1^g_1 (c) = X_j (D_(g-e_j)), j the last nonzero
    count of g."""
    xs = set(frame.x_indices)
    if op.is_zero():
        return 0, {}
    if not (op.derivative_vars() & xs):
        return 0, {(0,) * op.ring.nvars: op}
    ring, m, delta = op.ring, op.order(), frame.delta
    zero = zero_op(ring, op.ncomps)
    items = []
    acc = zero
    for (alpha, i), a in op.terms.items():
        if sum(alpha) < m:
            continue
        ax = tuple(e if j in xs else 0 for j, e in enumerate(alpha))
        ay = tuple(e - x for e, x in zip(alpha, ax))
        tails = {}
        for r in _sub_multis(ax):
            j = next((j for j, e in enumerate(r) if e), None)
            tails[r] = (LinearDiffOp(ring, op.ncomps, {(ay, i): 1}) if j is None
                        else frame.y_parts[j].compose(tails[_lower(r, j)]))
        words = {k: tails[tuple(x - e for x, e in zip(ax, k))].scale(
                     (-1) ** (sum(ax) - sum(k)) * _multi_binom(ax, k))
                 for k in _sub_multis(ax)}
        c = a * delta ** sum(ay)
        acc = acc + _expand(frame.fields, words, zero).scale(c)
        items.append((c, ax, words))
    rest = op.scale(delta ** m) - acc
    if not rest.is_zero() and rest.order() >= m:
        raise DomainError("internal: top order did not cancel in the rewrite")

    d_rest, buckets = _rewrite(rest, frame)
    scale = delta ** d_rest
    for c, ax, words in items:
        table = {}
        for g in _sub_multis(ax):
            j = max((j for j, e in enumerate(g) if e), default=None)
            table[g] = (c * scale if j is None
                        else frame.fields[j].apply_poly(table[_lower(g, j)]))
        for k, word in words.items():
            for g in _sub_multis(k):
                u = tuple(x - e for x, e in zip(k, g))
                o = word.scale(table[g] * ((-1) ** sum(g) * _multi_binom(k, g)))
                buckets[u] = buckets.get(u, zero) + o
    return d_rest + m, {u: o for u, o in buckets.items() if not o.is_zero()}


def eliminate_x_derivatives(op, frame):
    """(D, {alpha: L_alpha}) with Delta^D L = sum X^alpha o L_alpha exactly,
    every L_alpha free of x-derivatives; verified by canonical equality."""
    d, out = _rewrite(op, frame)
    if d and frame.delta.is_constant():
        c = Fraction(1) / frame.delta.constant_value() ** d
        out, d = {a: o.scale(c) for a, o in out.items()}, 0
    check = _expand(frame.fields, out, zero_op(frame.ring, op.ncomps))
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
