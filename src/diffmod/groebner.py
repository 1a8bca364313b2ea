"""Groebner bases for ideals and submodules of free modules over Q[x].

The engine works on "mvecs": dicts mapping (component, monomial) to a
Fraction.  Buchberger's algorithm uses the normal pair-selection
strategy with sugar tie-breaking; the coprime-lcm criterion is applied
only when it is valid (ideal case, or both elements supported in one
common component), the chain criterion whenever all three leading
terms share a component.  Rational growth is controlled by dividing
every reduction result by its content.

Higher-level operations: syzygies and inhomogeneous solving (solution
modules of linear systems over the ring), intersection by the tag
variable, elimination, module equality, and the critical exponent of
chains M_0 <= M_1 <= ...  The critical exponent and saturation share
one primitive: a single Groebner basis over Q[x, t] with the
Rabinowitsch generators (t*Delta - 1) e_i, eliminating t.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .errors import DomainError, StructuralError
from .orders import (ModuleOrder, elim_order, grevlex_order, mono_coprime,
                     mono_deg, mono_div, mono_lcm, mono_mul, top_order)
from .poly import Polynomial, PolyVec


# -- mvec primitives ----------------------------------------------------

def vec_to_mvec(v):
    mv = {}
    for i, p in enumerate(v.comps):
        for m, c in p.terms.items():
            mv[(i, m)] = c
    return mv


def mvec_to_vec(ring, j, mv):
    polys = [dict() for _ in range(j)]
    for (i, m), c in mv.items():
        polys[i][m] = c
    return PolyVec([Polynomial(ring, t) for t in polys])


def _mv_lt(mv, morder):
    key = None
    best = None
    for (i, m) in mv:
        k = morder.key(i, m)
        if key is None or k > key:
            key = k
            best = (i, m)
    return best


def _mv_axpy(f, coeff, mono, g):
    """f -= coeff * x^mono * g, in place."""
    for (i, m), c in g.items():
        key = (i, mono_mul(mono, m))
        v = f.get(key, Fraction(0)) - coeff * c
        if v:
            f[key] = v
        else:
            f.pop(key, None)


def _mv_scale(f, c):
    for k in f:
        f[k] *= c


def _mv_content(f):
    num = 0
    den = 1
    for c in f.values():
        num = gcd(num, abs(c.numerator))
        den = den * c.denominator // gcd(den, c.denominator)
    return Fraction(num, den)


def _mv_make_primitive(f, companions=()):
    """Divide f (and companion mvecs) by the content of f."""
    if not f:
        return
    c = _mv_content(f)
    if c != 1:
        inv = 1 / c
        _mv_scale(f, inv)
        for g in companions:
            _mv_scale(g, inv)


class _Gen:
    __slots__ = ("mv", "lt", "ltc", "sugar", "rep", "pure_comp")

    def __init__(self, mv, morder, sugar=None, rep=None):
        self.mv = mv
        self.lt = _mv_lt(mv, morder)
        self.ltc = mv[self.lt]
        self.sugar = sugar if sugar is not None else max(mono_deg(m) for (_, m) in mv)
        self.rep = rep
        comps = {i for (i, _) in mv}
        self.pure_comp = next(iter(comps)) if len(comps) == 1 else None


def _reduce(mv, gens, morder, rep=None, full=True):
    """Normal form of mv against gens; mutates nothing, returns (remainder, rep')."""
    work = dict(mv)
    rem = {}
    rep = dict(rep) if rep is not None else None
    track = rep is not None
    while work:
        lt = _mv_lt(work, morder)
        c = work[lt]
        hit = None
        for g in gens:
            if g.lt[0] == lt[0]:
                q = mono_div(lt[1], g.lt[1])
                if q is not None:
                    hit = (g, q)
                    break
        if hit is None:
            if not full:
                rem.update(work)
                return rem, rep
            rem[lt] = c
            del work[lt]
            continue
        g, q = hit
        factor = c / g.ltc
        _mv_axpy(work, factor, q, g.mv)
        if track and g.rep is not None:
            _mv_axpy(rep, factor, q, g.rep)
    return rem, rep


def _spair(gi, gj, morder, track):
    comp = gi.lt[0]
    l = mono_lcm(gi.lt[1], gj.lt[1])
    qi = mono_div(l, gi.lt[1])
    qj = mono_div(l, gj.lt[1])
    s = {}
    _mv_axpy(s, Fraction(-1) / gi.ltc, qi, gi.mv)
    _mv_axpy(s, Fraction(1) / gj.ltc, qj, gj.mv)
    rep = None
    if track:
        rep = {}
        if gi.rep:
            _mv_axpy(rep, Fraction(-1) / gi.ltc, qi, gi.rep)
        if gj.rep:
            _mv_axpy(rep, Fraction(1) / gj.ltc, qj, gj.rep)
    sugar = max(gi.sugar + mono_deg(qi), gj.sugar + mono_deg(qj))
    return s, rep, sugar, (comp, l)


def _buchberger_core(mvs, morder, track=False, reps=None):
    gens = []
    for idx, mv in enumerate(mvs):
        if not mv:
            continue
        mv = dict(mv)
        zero_mono = (0,) * len(next(iter(mv))[1])
        rep = None
        if track:
            rep = dict(reps[idx]) if reps is not None else {(idx, zero_mono): Fraction(1)}
        _mv_make_primitive(mv, [rep] if rep else ())
        gens.append(_Gen(mv, morder, rep=rep))

    heap = []
    pending = set()

    def lcm_of(a, b):
        return mono_lcm(gens[a].lt[1], gens[b].lt[1])

    def push_pair(s, t):
        gi, gj = gens[s], gens[t]
        l = lcm_of(s, t)
        sugar = max(gi.sugar + mono_deg(l) - mono_deg(gi.lt[1]),
                    gj.sugar + mono_deg(l) - mono_deg(gj.lt[1]))
        heapq.heappush(heap, ((morder.mono_order.key(l), sugar, s, t), s, t))
        pending.add((s, t))

    def add_pairs(t):
        gt = gens[t]
        for s in range(t):
            if gens[s].lt[0] == gt.lt[0]:
                push_pair(s, t)

    for t in range(len(gens)):
        add_pairs(t)

    while heap:
        _, s, t = heapq.heappop(heap)
        if (s, t) not in pending:
            continue
        pending.discard((s, t))
        gi, gj = gens[s], gens[t]
        l = lcm_of(s, t)
        # product criterion: only valid when both elements live in one
        # shared component (the ideal case); unsound for general vectors
        if (gi.pure_comp is not None and gi.pure_comp == gj.pure_comp
                and mono_coprime(gi.lt[1], gj.lt[1])):
            continue
        # chain criterion
        skip = False
        for r in range(len(gens)):
            if r in (s, t) or gens[r].lt[0] != gi.lt[0]:
                continue
            if mono_div(l, gens[r].lt[1]) is None:
                continue
            p1 = (min(s, r), max(s, r))
            p2 = (min(t, r), max(t, r))
            if p1 not in pending and p2 not in pending:
                skip = True
                break
        if skip:
            continue
        smv, srep, sugar, _ = _spair(gi, gj, morder, track)
        rem, rrep = _reduce(smv, gens, morder, rep=srep)
        if not rem:
            continue
        _mv_make_primitive(rem, [rrep] if track else ())
        gens.append(_Gen(rem, morder, sugar=sugar, rep=rrep))
        add_pairs(len(gens) - 1)

    # inter-reduce to the unique reduced basis (monic leading coefficients)
    changed = True
    while changed:
        changed = False
        for k in range(len(gens)):
            g = gens[k]
            if g is None:
                continue
            others = [h for idx, h in enumerate(gens) if h is not None and idx != k]
            rem, rrep = _reduce(g.mv, others, morder, rep=g.rep)
            if not rem:
                gens[k] = None
                changed = True
                continue
            if rem != g.mv:
                _mv_make_primitive(rem, [rrep] if track else ())
                gens[k] = _Gen(rem, morder, sugar=g.sugar, rep=rrep)
                changed = True
    out = [g for g in gens if g is not None]
    for g in out:
        c = g.ltc
        if c != 1:
            inv = 1 / c
            _mv_scale(g.mv, inv)
            if g.rep is not None:
                _mv_scale(g.rep, inv)
            g.ltc = Fraction(1)
    out.sort(key=lambda g: morder.key(*g.lt))
    return out


# -- public basis object -------------------------------------------------

class SubmoduleBasis:
    """Finite generator list for a submodule of ring^J (J=1 encodes an ideal)."""

    def __init__(self, ring, j, gens, order=None, is_groebner=False):
        self.ring = ring
        self.j = j
        clean = []
        for g in gens:
            if isinstance(g, Polynomial):
                g = PolyVec([g])
            if len(g) != j:
                raise StructuralError("generator arity %d, expected %d" % (len(g), j))
            if g.ring != ring:
                raise StructuralError("generator over wrong ring")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self.order = order or top_order()
        self.is_groebner = is_groebner
        self._gb = self if is_groebner else None

    def groebner(self):
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb

    def polys(self):
        if self.j != 1:
            raise StructuralError("not an ideal")
        return [g[0] for g in self.gens]

    def __repr__(self):
        return "SubmoduleBasis(j=%d, %d gens)" % (self.j, len(self.gens))


def ideal(ring, polys, order=None):
    return SubmoduleBasis(ring, 1, [PolyVec([p]) for p in polys], order=order)


def full_module(ring, j):
    return SubmoduleBasis(ring, j, [PolyVec.unit(ring, j, k) for k in range(j)])


# -- spec-level operations ------------------------------------------------

def buchberger(basis):
    """Reduced Groebner basis generating the same submodule."""
    gens = _buchberger_core([vec_to_mvec(g) for g in basis.gens], basis.order)
    vecs = [mvec_to_vec(basis.ring, basis.j, g.mv) for g in gens]
    return SubmoduleBasis(basis.ring, basis.j, vecs, order=basis.order, is_groebner=True)


def normal_form(f, basis):
    """Normal form of f against basis; canonical when basis is a Groebner basis."""
    scalar = isinstance(f, Polynomial)
    v = PolyVec([f]) if scalar else f
    if len(v) != basis.j:
        raise StructuralError("arity mismatch")
    gens = [_Gen(vec_to_mvec(g), basis.order) for g in basis.gens]
    rem, _ = _reduce(vec_to_mvec(v), gens, basis.order)
    out = mvec_to_vec(basis.ring, basis.j, rem)
    return out[0] if scalar else out


def member(f, basis):
    gb = basis.groebner()
    nf = normal_form(f, gb)
    return nf.is_zero() if isinstance(nf, Polynomial) else nf.is_zero()


def module_equal(m1, m2):
    """True iff the two bases generate the same submodule."""
    if m1.j != m2.j or m1.ring != m2.ring:
        raise StructuralError("incomparable modules")
    g1 = m1.groebner()
    g2 = m2.groebner()
    return all(normal_form(g, g2).is_zero() for g in m1.gens) and \
        all(normal_form(g, g1).is_zero() for g in m2.gens)


def syzygy_module(gens):
    """Generators of all relations sum_k s_k * gens_k = 0.

    Computed from a Groebner basis of the graph module {(g_k, e_k)}
    with a component-elimination order; its elements supported purely
    in the tag block are the syzygies.
    """
    gens = [PolyVec([g]) if isinstance(g, Polynomial) else g for g in gens]
    if not gens:
        raise StructuralError("no generators")
    ring = gens[0].ring
    j = len(gens[0])
    s = len(gens)
    morder = ModuleOrder(grevlex_order(), "top", comp_elim=j)
    mvs = []
    for k, g in enumerate(gens):
        mv = vec_to_mvec(g)
        mv[(j + k, (0,) * ring.nvars)] = Fraction(1)
        mvs.append(mv)
    basis = _buchberger_core(mvs, morder)
    out = []
    for g in basis:
        if any(i < j for (i, _) in g.mv):
            continue
        shifted = {(i - j, m): c for (i, m), c in g.mv.items()}
        out.append(mvec_to_vec(ring, s, shifted))
    return SubmoduleBasis(ring, s, out)


class LinearSystemOverRing:
    """Equations sum_j A[i][j] * P_j = Q_i over the polynomial ring."""

    def __init__(self, matrix, rhs=None):
        if not matrix or not matrix[0]:
            raise StructuralError("empty system")
        self.ring = matrix[0][0].ring
        width = len(matrix[0])
        for row in matrix:
            if len(row) != width:
                raise StructuralError("ragged matrix")
            for p in row:
                if p.ring != self.ring:
                    raise StructuralError("mixed rings in system")
        self.matrix = [list(r) for r in matrix]
        self.rhs = list(rhs) if rhs is not None else None
        if self.rhs is not None and len(self.rhs) != len(self.matrix):
            raise StructuralError("rhs length mismatch")

    def columns(self):
        rows = len(self.matrix)
        return [PolyVec([self.matrix[i][k] for i in range(rows)])
                for k in range(len(self.matrix[0]))]


def solution_module(system):
    """Generators of the module of solutions of the homogeneous system A P = 0."""
    return syzygy_module(system.columns())


def solve_inhomogeneous(system):
    """A particular polynomial solution of A P = Q, or None when there is none."""
    if system.rhs is None:
        raise StructuralError("system has no right-hand side")
    ring = system.ring
    cols = system.columns()
    q = PolyVec(system.rhs)
    mvs = [vec_to_mvec(c) for c in cols]
    morder = top_order()
    gb = _buchberger_core(mvs, morder, track=True)
    rem, rep = _reduce(vec_to_mvec(q), gb, morder, rep={})
    if rem:
        return None
    # rem tracking gives q = -sum rep_k * gen_k
    sol = [Polynomial.zero(ring) for _ in cols]
    for (k, m), c in rep.items():
        sol[k] = sol[k] + Polynomial.monomial(ring, m, -c)
    p = PolyVec(sol)
    for i, row in enumerate(system.matrix):
        acc = Polynomial.zero(ring)
        for a, pj in zip(row, p.comps):
            acc = acc + a * pj
        if acc != system.rhs[i]:
            raise DomainError("internal: solution verification failed")
    return p


def _with_tag(mv, power=0):
    """mv over Q[x] as an mvec over Q[x, t], t a new last variable, times t^power."""
    return {(i, m + (power,)): c for (i, m), c in mv.items()}


def _eliminate_tag(mvs, ring, j, comp_elim=0):
    """Vectors of ring^j in the submodule that `mvs` generate over Q[x, t].

    `mvs` live in comp_elim + j components over the ring extended by a
    last variable t.  One Groebner basis under an order eliminating t
    and the first comp_elim components; its elements free of both,
    shifted down, are the reduced top-grevlex basis of the elimination
    module.
    """
    tidx = ring.nvars
    morder = ModuleOrder(elim_order([tidx]), "top", comp_elim=comp_elim)
    out = []
    for g in _buchberger_core(mvs, morder):
        if any(i < comp_elim or m[tidx] for (i, m) in g.mv):
            continue
        down = {(i - comp_elim, m[:tidx]): c for (i, m), c in g.mv.items()}
        out.append(mvec_to_vec(ring, j, down))
    return out


def intersect(m1, m2):
    """Generators of M1 ∩ M2 via the tag-variable trick t*M1 + (1-t)*M2."""
    if m1.j != m2.j or m1.ring != m2.ring:
        raise StructuralError("incomparable modules")
    if not m1.gens or not m2.gens:
        return SubmoduleBasis(m1.ring, m1.j, [])
    mvs = [_with_tag(vec_to_mvec(g), 1) for g in m1.gens]
    for g in m2.gens:
        mv = vec_to_mvec(g)
        tagged = _with_tag(mv)
        tagged.update({k: -c for k, c in _with_tag(mv, 1).items()})
        mvs.append(tagged)
    return SubmoduleBasis(m1.ring, m1.j, _eliminate_tag(mvs, m1.ring, m1.j))


def eliminate(basis, drop):
    """Generators of the submodule of elements free of the dropped variables."""
    ring = basis.ring
    drop = sorted({d if isinstance(d, int) else ring.index(d) for d in drop})
    morder = ModuleOrder(elim_order(drop), "top")
    gb = _buchberger_core([vec_to_mvec(g) for g in basis.gens], morder)
    out = []
    for g in gb:
        if any(any(m[d] for d in drop) for (_, m) in g.mv):
            continue
        out.append(mvec_to_vec(ring, basis.j, g.mv))
    return SubmoduleBasis(ring, basis.j, out)


def poly_exact_div(p, f):
    """Quotient p/f; raises DomainError when f does not divide p exactly."""
    if f.is_zero():
        raise DomainError("division by zero polynomial")
    order = grevlex_order()
    fl, fc = f.leading(order)
    q = Polynomial.zero(p.ring)
    r = p
    while not r.is_zero():
        rl, rc = r.leading(order)
        m = mono_div(rl, fl)
        if m is None:
            raise DomainError("polynomial division is not exact")
        t = Polynomial.monomial(p.ring, m, rc / fc)
        q = q + t
        r = r - t * f
    return q


def saturate(basis, f):
    """M : f^infinity = {g : f^l * g in M for some l}, as the module M_inf
    of critical_l with A the generators of M, B the identity, Delta = f."""
    ring = basis.ring
    j = basis.j
    a_matrix = [[g[i] for g in basis.gens] for i in range(j)]
    identity = [[Polynomial.one(ring) if i == k else Polynomial.zero(ring)
                 for k in range(j)] for i in range(j)]
    return critical_l(a_matrix, identity, f)[1]


def critical_l(a_matrix, b_matrix, delta):
    """Critical exponent of the chain M_l = {P : Delta^l * B P in col(A)}.

    The chain ascends to M_inf = {P : Delta^l * B P in col(A) for some l}.
    M_inf comes from one Groebner basis over Q[x, t] of (B_k, e_k),
    (A_j, 0) and ((t*Delta - 1) e_i, 0), under an order eliminating the
    row components and t (the Rabinowitsch trick): its elements free of
    both are the reduced basis of M_inf.  For each of them the least l
    with Delta^l * B g in col(A) is read off by normal forms against one
    basis of col(A); l0 is the largest.  As M_l = M_l+1 forces
    M_l+1 = M_l+2, l0 is the first index where the chain stops growing.
    Returns (l0, basis of M_l0).
    """
    if delta.is_zero():
        raise DomainError("Delta must be nonzero")
    if not b_matrix or not b_matrix[0]:
        raise StructuralError("empty B matrix")
    ring = delta.ring
    rows = len(b_matrix)
    kk = len(b_matrix[0])
    if a_matrix and len(a_matrix) != rows:
        raise StructuralError("A/B row mismatch")

    b_cols = [vec_to_mvec(PolyVec(list(col))) for col in zip(*b_matrix)]
    a_cols = [vec_to_mvec(PolyVec(list(col))) for col in zip(*a_matrix)]
    zero = (0,) * (ring.nvars + 1)
    mvs = []
    for k, col in enumerate(b_cols):
        mv = _with_tag(col)
        mv[(rows + k, zero)] = Fraction(1)
        mvs.append(mv)
    mvs += [_with_tag(col) for col in a_cols]
    rab = {m + (1,): c for m, c in delta.terms.items()}
    rab[zero] = Fraction(-1)
    mvs += [{(i, m): c for m, c in rab.items()} for i in range(rows)]
    gens = _eliminate_tag(mvs, ring, kk, comp_elim=rows)

    morder = top_order()
    col_a = _buchberger_core(a_cols, morder)
    l0 = 0
    for g in gens:
        bg = {}
        for k, col in enumerate(b_cols):
            for m, c in g[k].terms.items():
                _mv_axpy(bg, -c, m, col)
        rem, _ = _reduce(bg, col_a, morder)
        l = 0
        while rem:
            nxt = {}
            for m, c in delta.terms.items():
                _mv_axpy(nxt, -c, m, rem)
            rem, _ = _reduce(nxt, col_a, morder)
            l += 1
        l0 = max(l0, l)
    return l0, SubmoduleBasis(ring, kk, gens, is_groebner=True)
