"""Vanishing ideals of stratified semialgebraic sets.

A stratum is a graph {(x, G(x)) : x in U} described by sign conditions
on the base block, one quasi-monic annihilator per graph coordinate, an
optional rational witness on the graph, and an optional linear change
of coordinates into the ambient space.  Complexification selects the
unique irreducible component of the annihilators' zero set through the
witness; polynomials vanish on the stratum exactly when they vanish on
that component, so its ideal is the stratum's vanishing ideal.  The
ideal of a union of strata is the intersection over the strata.

Component selection factors each annihilator over Q and keeps the
factors vanishing at the witness, saturated by their leading
coefficients.  sympy is loaded only to factor an annihilator of degree
>= 3, with a non-constant leading coefficient, or with a square
discriminant; the rest are proved irreducible exactly.  With a rational
witness and independent differentials the chosen factors are absolutely
irreducible; when more than one of them is nonlinear in its graph
variable the combination can still split into several components, and
such inputs are rejected rather than mishandled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import isqrt

from .errors import (DomainError, StructuralError, UnsupportedInputError,
                     WitnessSearchError)
from .groebner import SubmoduleBasis, buchberger, ideal, intersect, saturate
from .poly import Polynomial, PolyVec, Ring, linear_change_of_vars, mat_det
from .quasimonic import QuasiMonic, coeff_in_var, delta_of
from .realroots import (SemialgebraicDescription, enumerate_points,
                        isolate_real_roots)


def factor_rational(p):
    """Irreducible factors of p over Q as (factor, multiplicity) pairs."""
    import sympy
    poly = sympy.Poly.from_dict(
        {m: sympy.QQ(c.numerator, c.denominator) for m, c in p.terms.items()},
        *[sympy.Symbol(n) for n in p.ring.names], domain=sympy.QQ)
    _, factors = poly.factor_list()
    return [(Polynomial(p.ring, {m: Fraction(int(c.p), int(c.q)) for m, c in f.terms()}), k)
            for f, k in factors]


# -- strata -----------------------------------------------------------------

@dataclass
class Stratum:
    """Graph stratum in local coordinates (x-block, y-block, z-block).

    T maps ambient coordinates to local ones; the ambient stratum is the
    preimage of the local graph.  Connectedness of U and analyticity of
    the graph map are trusted; everything machine-checkable (annihilator
    shape, witness membership, invertibility of T) is verified.
    """

    n: int
    m: int
    p: int
    u_desc: SemialgebraicDescription = None
    anns_y: list = field(default_factory=list)   # Polynomials in (x, y_mu)
    anns_z: list = field(default_factory=list)   # Polynomials in (x, z_lam)
    witness: list = None
    T: list = None
    ring: Ring = None

    def __post_init__(self):
        if self.ring is None:
            self.ring = Ring.make(nx=self.n, ny=self.m, nz=self.p)
        q = self.n + self.m + self.p
        if self.ring.nvars != q:
            raise StructuralError("ring does not match stratum dimensions")
        if len(self.anns_y) != self.m or len(self.anns_z) != self.p:
            raise StructuralError("one annihilator per graph coordinate required")
        if self.u_desc is None:
            self.u_desc = SemialgebraicDescription(((),), self.n)
        if self.u_desc.nvars != self.n:
            raise StructuralError("U-description dimension mismatch")
        ybase = self.n
        zbase = self.n + self.m
        for mu, p_ in enumerate(self.anns_y):
            self._check_ann(p_, ybase + mu)
        for lam, p_ in enumerate(self.anns_z):
            self._check_ann(p_, zbase + lam)
        if self.witness is not None:
            self.witness = [Fraction(w) for w in self.witness]
            if len(self.witness) != q:
                raise StructuralError("witness has wrong length")
            if not self.u_desc.holds_at(self.witness[:self.n]):
                raise DomainError("witness violates the base sign conditions")
            for p_ in self.anns_y + self.anns_z:
                if p_.evaluate(self.witness) != 0:
                    raise DomainError("witness does not lie on an annihilator")
        self.T = ambient_map(self.T, q)

    def _check_ann(self, p_, var):
        if p_.ring != self.ring:
            raise StructuralError("annihilator over wrong ring")
        if p_.is_zero():
            raise StructuralError("zero annihilator")
        if p_.degree_in(var) < 1:
            raise StructuralError("annihilator does not involve its graph variable")
        graph_vars = set(range(self.n, self.ring.nvars))
        extra = (p_.vars_used() & graph_vars) - {var}
        if extra:
            raise StructuralError("annihilator couples several graph variables")

    def x_indices(self):
        return tuple(range(self.n))

    def graph_indices(self):
        return tuple(range(self.n, self.n + self.m + self.p))

    def annihilators(self):
        out = []
        for mu, p_ in enumerate(self.anns_y):
            out.append(QuasiMonic(p_, self.n + mu))
        for lam, p_ in enumerate(self.anns_z):
            out.append(QuasiMonic(p_, self.n + self.m + lam))
        return out


def ambient_map(T, size):
    """The linear map T (ambient -> local coordinates) as a size x size
    matrix of Fractions; None stands for the identity and is kept."""
    if T is None:
        return None
    T = [[Fraction(v) for v in row] for row in T]
    if len(T) != size or any(len(r) != size for r in T):
        raise StructuralError("T has wrong shape")
    if mat_det(T) == 0:
        raise DomainError("T is singular")
    return T


def pull_back(basis, ring, T):
    """The generators of basis lifted into ring by variable index, then
    through T (an `ambient_map`, None for the identity)."""
    ident = {i: i for i in range(basis.ring.nvars)}
    gens = [PolyVec([p.lift(ring, ident) for p in g.comps]) for g in basis.gens]
    if T is not None and gens:
        gens = linear_change_of_vars(gens, T)
    return SubmoduleBasis(ring, basis.j, gens)


def meet(result, basis, ring, T, key, pulled):
    """(result ∩ C, C) for C the `pull_back` of basis, made once per (key, T)
    in `pulled`; a reduced `intersect` result met C already, so stays as is."""
    pair = key, None if T is None else tuple(map(tuple, T))
    contrib = pulled.get(pair)
    if contrib is None:
        contrib = pulled[pair] = pull_back(basis, ring, T)
    elif result is not contrib:
        return result, contrib
    return (contrib if result is None else intersect(result, contrib)), contrib


# -- component selection ------------------------------------------------------

def _is_square(p):
    """Whether p = s^2 for some s in Q[x]: s is built term by term from the
    grevlex leading term of p - s^2, which strictly decreases."""
    root = Polynomial.zero(p.ring)
    while not p.is_zero():
        m, c = p.leading()
        if root.is_zero():
            n, d = c.numerator, c.denominator
            if n < 0 or isqrt(n) ** 2 != n or isqrt(d) ** 2 != d or any(e % 2 for e in m):
                return False
            lm, lc = tuple(e // 2 for e in m), Fraction(isqrt(n), isqrt(d))
            t = Polynomial.monomial(p.ring, lm, lc)
        else:
            q = tuple(e - f for e, f in zip(m, lm))
            if min(q) < 0:
                return False
            t = Polynomial.monomial(p.ring, q, c / (2 * lc))
        p = p - (root * 2 + t) * t
        root = root + t
    return True


def _irreducible(qm):
    """Whether qm is proved irreducible over Q without factoring.  A nonzero
    constant among its coefficients in w makes p primitive over Q[x], so by
    Gauss's lemma a proper factor has positive w-degree: none for degree 1,
    and for a*w^2 + b*w + c two linear ones iff b^2 - 4ac is a square in Q[x]."""
    b, c = (coeff_in_var(qm.poly, qm.var, k) for k in (1, 0))
    if qm.deg > 2 or all(p.is_zero() or not p.is_constant() for p in (qm.lead, b, c)):
        return False
    return qm.deg == 1 or not _is_square(b * b - qm.lead * c * 4)


def select_component(members, witness):
    """Prime ideal of the unique irreducible component through the witness
    of the zero set of `members`: QuasiMonic annihilators over one ring,
    each in its own graph variable (a triangular system).

    Requires the differentials at the witness to be independent (for a
    triangular system: each annihilator's distinguished derivative must
    not vanish there) and the leading coefficients to be nonzero at the
    witness.  At most one chosen factor may be nonlinear in its graph
    variable; richer inputs can split into several components over the
    complex numbers and are rejected.
    """
    ring = members[0].poly.ring
    witness = [Fraction(w) for w in witness]
    chosen = []
    for qm in members:
        if qm.poly.evaluate(witness) != 0:
            raise DomainError("witness does not lie on the system")
        if qm.poly.diff(qm.var).evaluate(witness) == 0:
            raise UnsupportedInputError(
                "differentials at the witness are dependent; apply derivative "
                "preprocessing or move the witness")
        # sympy factors only degree >= 3, no nonzero constant coefficient or a square discriminant
        factors = [(qm.poly, 1)] if _irreducible(qm) else factor_rational(qm.poly)
        hits = [(f, mult) for f, mult in factors if f.degree() >= 1 and f.evaluate(witness) == 0]
        if len(hits) != 1 or hits[0][1] != 1:
            raise UnsupportedInputError(
                "witness sits on several factors; differentials cannot be "
                "independent there")
        factor = hits[0][0]
        if factor.degree_in(qm.var) < 1:
            raise UnsupportedInputError("chosen factor lost its graph variable")
        chosen.append(QuasiMonic(factor, qm.var))

    nonlinear = [qm for qm in chosen if qm.deg > 1]
    if len(nonlinear) > 1:
        raise UnsupportedInputError(
            "several nonlinear graph coordinates: the component through the "
            "witness may not be cut out by the chosen factors")

    lead_prod = delta_of(chosen, ring)
    if lead_prod.evaluate(witness) == 0:
        raise UnsupportedInputError("leading coefficient vanishes at the witness")

    basis = ideal(ring, [qm.poly for qm in chosen])
    if lead_prod.is_constant():
        return buchberger(basis)
    # already a reduced top-grevlex basis
    return saturate(basis, lead_prod)


# -- witness search for strata -------------------------------------------------

_WITNESS_TRIES = 200   # base points tried before the search gives up


def _stratum_witness(stratum, budget=20000):
    """Find (x0, graph values) with nonzero annihilator derivatives, or fail.

    Only unambiguous strata are searched: every annihilator must have a
    single real root over the candidate base point and that root must be
    rational; then the graph values are forced.  Anything else needs a
    caller-supplied witness.
    """
    anns = stratum.annihilators()
    for base in islice(enumerate_points(stratum.u_desc, budget=budget), _WITNESS_TRIES):
        values = {i: v for i, v in enumerate(base)}
        for qm in anns:
            uni = qm.poly.partial_eval(values)
            roots = [] if uni.is_zero() or uni.degree_in(qm.var) < 1 else isolate_real_roots(uni)
            if len(roots) != 1 or not roots[0].exact:
                break
            values[qm.var] = roots[0].lower
        else:
            point = [values.get(i, Fraction(0)) for i in range(stratum.ring.nvars)]
            if all(qm.poly.evaluate(point) == 0 and
                   qm.poly.diff(qm.var).evaluate(point) != 0 and
                   (qm.lead.is_constant() or qm.lead.evaluate(point) != 0)
                   for qm in anns):
                return point
    raise WitnessSearchError(
        "bounded witness search failed; supply a witness on the stratum")


def preprocess_annihilators(stratum, witness):
    """Replace annihilators by their distinguished derivatives while those
    derivatives vanish at the witness, keeping the triangular shape."""
    out = []
    for qm in stratum.annihilators():
        p_ = qm.poly
        while p_.diff(qm.var).evaluate(witness) == 0:
            p_ = p_.diff(qm.var)
            if p_.degree_in(qm.var) < 1:
                raise DomainError(
                    "annihilator degenerated to a base polynomial at the witness; "
                    "the witness cannot be generic on the stratum")
        out.append(QuasiMonic(p_, qm.var))
    return out


# -- complexification -----------------------------------------------------------

def complexify(stratum, budget=20000):
    """Generators of the ideal of all polynomials vanishing on the stratum."""
    ring = stratum.ring
    if stratum.m + stratum.p == 0:
        return SubmoduleBasis(ring, 1, [])
    witness = stratum.witness
    if witness is None:
        witness = _stratum_witness(stratum, budget=budget)
    return select_component(preprocess_annihilators(stratum, witness), witness)


def vanishing_ideal(strata, budget=20000):
    """Ideal of polynomials vanishing on a union of strata: each distinct
    (stratum ideal, T) pair pulled back through T once and met by `meet`."""
    if not strata:
        raise StructuralError("no strata given")
    q = strata[0].ring.nvars
    for s in strata:
        if s.ring.nvars != q:
            raise StructuralError("strata live in different ambient dimensions")
    ring = Ring.make(nx=q)

    result, pulled = None, {}
    for s in strata:
        ideal_s = complexify(s, budget=budget)
        key = s.ring.names, tuple(g.text() for g in ideal_s.gens)
        result = meet(result, ideal_s, ring, s.T, key, pulled)[0]
    return result.groebner()
