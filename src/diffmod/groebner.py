"""Groebner bases for ideals and submodules of free modules over Q[x].

The engine works on "mvecs": dicts mapping a module term to a
coefficient.  Outside the core the term is (component, monomial); inside,
it is one int of an `orders.Packing`, whose int order is the term order,
so a leading term is `max(work)`, a monomial shift is one addition and a
divisor test is one subtraction and mask.  Buchberger's algorithm uses
the normal pair-selection strategy with sugar tie-breaking; the
coprime-lcm criterion is applied only when it is valid (ideal case, or
both elements supported in one common component), the chain criterion
whenever all three leading terms share a component.

Inside the core every generator is a primitive integer mvec, and
reduction is fraction-free: a step scales the working vector by an
integer instead of dividing by a leading coefficient, so each
intermediate generator is a positive rational multiple of the one exact
rational arithmetic would give and the path taken is the same.  A vector
enters the core once, as `Packing.primitive` makes it a primitive integer
mvec and a positive rational scale, and leaves it once, as `_to_vec`
divides it by one rational: its leading coefficient for a basis element,
the scale times `_nf`'s for a remainder.  The normal forms against one
basis all reduce by its fixed reducers, so they share a memo of each
leading term's first divisor.  Generators are indexed by the component
of their leading term, which is where divisor search, pair forming and
the chain criterion look.  `_nf` is the only reduction: one pass of it
inter-reduces the Groebner basis the pairs leave, and exact division is
a normal form.

Higher-level operations: syzygies and inhomogeneous solving (solution
modules of linear systems over the ring), intersection by the tag
variable, elimination, module equality, and the critical exponent of
chains M_0 <= M_1 <= ...  A matrix is a list of column vectors, like
the generators of a SubmoduleBasis.  Syzygies, saturation and the
critical exponent are one routine, `critical_l_columns`, which takes
its columns as mvecs with the row as component (`vec_to_mvec` converts
a vector), and shares `_eliminate_tag` with intersection and
elimination.  It eliminates t from the Rabinowitsch generators
(t*Delta - 1) e_i.  Before that, every row with a constant entry in
some A column is cleared from the other columns and dropped with that
column, which changes no M_l.  A constant Delta, as for syzygies, makes
the chain constant, so l0 = 0 and M_0 is one elimination over Q[x],
with no t, no Rabinowitsch generators and no basis of col(A).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import DomainError, StructuralError
from .orders import (OVER_LIMIT, ModuleOrder, elim_order, mono_coprime, mono_lcm,
                     mono_mul, mv_primitive, packing, top_order)
from .poly import Polynomial, PolyVec


# -- mvec primitives ----------------------------------------------------

def vec_to_mvec(v):
    mv = {}
    for i, p in enumerate(v.comps):
        for m, c in p.terms.items():
            mv[(i, m)] = c
    return mv


def _to_vec(mv, d, pk, ring, j, first=0):
    """The vector mv / d of j polynomials, for a packed integer mvec mv and a
    rational d != 0, in one pass: component i of mv is entry i - first, and
    monomials are cut to the ring's variables.  Every term comes through
    the guard-checked `unpack` and every coefficient is a nonzero int, so
    the polynomials skip the validating constructor."""
    num, den = d.numerator, d.denominator
    n = ring.nvars
    polys = [{} for _ in range(j)]
    unpack = pk.unpack
    for t, c in mv.items():
        i, m = unpack(t)
        polys[i - first][m[:n]] = Fraction(c * den, num)
    return PolyVec([Polynomial._of(ring, p) for p in polys])


def _mv_axpy(f, coeff, shift, g):
    """f -= coeff * x^q * g, in place, for packed mvecs; `shift` is x^q packed."""
    get = f.get
    for key, c in g.items():
        key += shift
        v = get(key, 0) - coeff * c
        if v:
            f[key] = v
        else:
            f.pop(key, None)


class _Gen:
    """A generator as a primitive integer mvec on packed terms, with its
    leading term `lead` and that term's (comp, mono) `lt`.

    Unless flagged `primitive`, mv is made so and a tracked `rep` (values may
    be Fractions, terms checked) rescaled alike: mv = sum rep * inputs holds.
    """

    __slots__ = ("mv", "lead", "lt", "ltc", "sugar", "rep", "pure_comp")

    def __init__(self, mv, pk, sugar=None, rep=None, primitive=False):
        if not primitive:
            mv, s = mv_primitive(mv)
            if rep and s != 1:
                rep = {k: v * s for k, v in rep.items()}
        if rep and any(k & pk.guard for k in rep):
            raise DomainError(OVER_LIMIT)
        self.mv = mv
        self.lead = max(mv)
        self.lt = pk.unpack(self.lead)
        self.ltc = mv[self.lead]
        self.sugar = sugar if sugar is not None else max(sum(pk.unpack(k)[1]) for k in mv)
        self.rep = rep
        comps = set(map(pk.comp, mv))
        self.pure_comp = next(iter(comps)) if len(comps) == 1 else None


def _index(gens):
    """Component of the leading term -> the generators with it, in order."""
    index = {}
    for g in gens:
        index.setdefault(g.lt[0], []).append(g)
    return index


def _nf(work, index, pk, rep=None, skip=None, memo=None):
    """Fraction-free normal form of the packed integer mvec `work` (consumed).

    Returns (rem, rep, scale): rem = scale * (the exact normal form), with
    `scale` a positive integer, and rep scaled alike.  A step with
    divisor g turns work into (a/d) * work - (c/d) * x^q * g, where a is
    g's leading coefficient, c the one of work and d = gcd(a, c) with the
    sign of a.  Terms moved to the remainder keep the scale of their
    step and are brought up to the final one at the end.  A leading term
    with an exponent at the packing's limit raises DomainError.  `memo`
    maps a leading term to its divisor, the first in index order, or None;
    it holds for every call with the same index and skip.
    """
    done = []
    scale = 1
    guard = pk.guard
    while work:
        lt = max(work)
        if lt & guard:
            raise DomainError(OVER_LIMIT)
        c = work[lt]
        g = memo.get(lt, False) if memo is not None else False
        if g is False:
            for g in index.get(pk.comp(lt), ()):
                if g is not skip and not (lt - g.lead) & guard:
                    break
            else:
                g = None
            if memo is not None:
                memo[lt] = g
        if g is None:
            done.append((lt, c, scale))
            del work[lt]
            continue
        q = lt - g.lead
        a = g.ltc
        d = gcd(a, c) if a > 0 else -gcd(a, c)
        mult = a // d
        if mult != 1:
            scale *= mult
            for k in work:
                work[k] *= mult
            if rep:
                for k in rep:
                    rep[k] *= mult
        f = c // d
        _mv_axpy(work, f, q, g.mv)
        if rep is not None and g.rep is not None:
            _mv_axpy(rep, f, q, g.rep)
    return {lt: c * (scale // s) for lt, c, s in done}, rep, scale


def _spair(gi, gj, pk, track):
    """lcm(a, b) times the monic S-vector, a and b the leading coefficients."""
    lt = pk.pack(gi.lt[0], mono_lcm(gi.lt[1], gj.lt[1]))
    qi, qj = lt - gi.lead, lt - gj.lead
    a, b = gi.ltc, gj.ltc
    m = abs(a * b) // gcd(a, b)
    s = {}
    _mv_axpy(s, -(m // a), qi, gi.mv)
    _mv_axpy(s, m // b, qj, gj.mv)
    rep = None
    if track:
        rep = {}
        if gi.rep:
            _mv_axpy(rep, -(m // a), qi, gi.rep)
        if gj.rep:
            _mv_axpy(rep, m // b, qj, gj.rep)
    return s, rep


def _buchberger_core(mvs, pk, track=False):
    """Reduced Groebner basis of the primitive mvecs packed by pk, as _Gens by lead.

    The pair loop leaves a Groebner basis, which one inter-reduction pass
    makes reduced.  Each _Gen holds a primitive integer mvec, which divided
    by its `ltc` is the basis element.  With `track`, each rep gives the
    element as a combination of the inputs, rep = {(input index, monomial):
    coefficient}.
    """
    gens = [_Gen(mv, pk, rep={pk.pack(idx, ()): 1} if track else None, primitive=True)
            for idx, mv in enumerate(mvs) if mv]

    heap = []
    pending = set()
    index = {}      # component -> live generators, in gens order
    positions = {}  # component -> their positions in gens

    def push_pair(s, t):
        # by the order on the lcm, then sugar: l's packed shift is in that order
        gi, gj = gens[s], gens[t]
        l = mono_lcm(gi.lt[1], gj.lt[1])
        sugar = max(gi.sugar + sum(l) - sum(gi.lt[1]), gj.sugar + sum(l) - sum(gj.lt[1]))
        heapq.heappush(heap, (pk.shift(l), sugar, s, t))
        pending.add((s, t))

    def add_gen(t):
        comp = gens[t].lt[0]
        same = positions.setdefault(comp, [])
        for s in same:
            push_pair(s, t)
        same.append(t)
        index.setdefault(comp, []).append(gens[t])

    for t in range(len(gens)):
        add_gen(t)

    guard = pk.guard
    while heap:
        l, sugar, s, t = heapq.heappop(heap)
        pending.discard((s, t))
        gi, gj = gens[s], gens[t]
        # product criterion: only valid when both elements live in one
        # shared component (the ideal case); unsound for general vectors
        if (gi.pure_comp is not None and gi.pure_comp == gj.pure_comp
                and mono_coprime(gi.lt[1], gj.lt[1])):
            continue
        # chain criterion: a third lead divides l, and neither of its pairs
        # with s and t is still queued
        if any(r != s and r != t and not (l - gens[r].lead) & guard
               and (min(s, r), max(s, r)) not in pending
               and (min(t, r), max(t, r)) not in pending for r in positions[gi.lt[0]]):
            continue
        smv, srep = _spair(gi, gj, pk, track)
        rem, rrep, _ = _nf(smv, index, pk, srep)
        if not rem:
            continue
        gens.append(_Gen(rem, pk, sugar=sugar, rep=rrep))
        add_gen(len(gens) - 1)

    # one pass inter-reduces: the pairs left a Groebner basis, so an element
    # whose leading term another's divides reduces to zero against the rest,
    # every other keeps its leading term, and with no leading term added a
    # tail reduced once stays reduced
    for k, g in enumerate(gens):
        rem, rrep, _ = _nf(dict(g.mv), index, pk, dict(g.rep) if track else None, skip=g)
        bucket = index[g.lt[0]]
        if not rem:
            gens[k] = None
            bucket.remove(g)
        elif rem != g.mv:
            gens[k] = bucket[bucket.index(g)] = _Gen(rem, pk, sugar=g.sugar, rep=rrep)
    return sorted((g for g in gens if g is not None), key=attrgetter("lead"))


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
        self._reducers = None

    def groebner(self):
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb

    def reducers(self):
        """(the generators as indexed integer _Gens, their Packing, a divisor
        memo), built on first use.  A basis never changes its generators, so
        every normal form shares them, and the memo: each leading term's
        first divisor in index order, or None."""
        if self._reducers is None:
            pk = packing(self.order, self.ring.nvars)
            gens = [_Gen(pk.primitive(g)[0], pk, primitive=True) for g in self.gens]
            self._reducers = _index(gens), pk, {}
        return self._reducers

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
    """Reduced Groebner basis generating the same submodule; its normal
    forms reduce by the core's own generators."""
    pk = packing(basis.order, basis.ring.nvars)
    gens = _buchberger_core([pk.primitive(g)[0] for g in basis.gens], pk)
    vecs = [_to_vec(g.mv, g.ltc, pk, basis.ring, basis.j) for g in gens]
    out = SubmoduleBasis(basis.ring, basis.j, vecs, order=basis.order, is_groebner=True)
    out._reducers = _index(gens), pk, {}
    return out


def normal_form(f, basis):
    """Normal form of f against basis; canonical when basis is a Groebner basis."""
    scalar = isinstance(f, Polynomial)
    v = PolyVec([f]) if scalar else f
    if len(v) != basis.j:
        raise StructuralError("arity mismatch")
    _check_ring(basis.ring, [v])
    index, pk, memo = basis.reducers()
    work, s = pk.primitive(v)
    rem, _, scale = _nf(work, index, pk, memo=memo)
    out = _to_vec(rem, s * scale, pk, basis.ring, basis.j)
    return out[0] if scalar else out


def module_equal(m1, m2):
    """True iff the two bases generate the same submodule."""
    if m1.j != m2.j or m1.ring != m2.ring:
        raise StructuralError("incomparable modules")
    g1 = m1.groebner()
    g2 = m2.groebner()
    return all(normal_form(g, g2).is_zero() for g in m1.gens) and \
        all(normal_form(g, g1).is_zero() for g in m2.gens)


def syzygy_module(gens):
    """Generators of all relations sum_k s_k * gens_k = 0: the module M_0 of
    `critical_l_columns` with no A columns, B the generators and Delta = 1."""
    gens = [PolyVec([g]) if isinstance(g, Polynomial) else g for g in gens]
    if not gens:
        raise StructuralError("no generators")
    ring = gens[0].ring
    _check_ring(ring, gens)
    return critical_l_columns(len(gens[0]), [], [vec_to_mvec(g) for g in gens],
                              Polynomial.one(ring))[1]


def solve_inhomogeneous(gens, target):
    """A particular P with sum_k P_k * gens_k = target, or None when there
    is none; `target` is a vector or a sequence of polynomials."""
    if not gens:
        raise StructuralError("empty system")
    if any(len(g) != len(target) for g in gens):
        raise StructuralError("rhs length mismatch")
    ring = gens[0].ring
    q = PolyVec(target)
    _check_ring(ring, [*gens, q])
    pk = packing(top_order(), ring.nvars)
    entries = [pk.primitive(g) for g in gens]
    gb = _buchberger_core([p for p, _ in entries], pk, track=True)
    work, s = pk.primitive(q)
    rem, rep, scale = _nf(work, _index(gb), pk, rep={})
    if rem:
        return None
    # rem tracking gives scale * s * q = -sum rep_k * p_k, with p_k = s_k * gen_k
    sol = [{} for _ in gens]
    for t, c in rep.items():
        k, m = pk.unpack(t)
        sol[k][m] = -c * entries[k][1] / (scale * s)
    sol = [Polynomial(ring, terms) for terms in sol]
    acc = PolyVec([Polynomial.zero(ring)] * len(q))
    for p, g in zip(sol, gens):
        acc = acc + g.scale(p)
    if acc != q:
        raise DomainError("internal: solution verification failed")
    return PolyVec(sol)


def _check_ring(ring, items):
    """Raise StructuralError unless every vector or polynomial in items is
    over ring; the core would loop forever on monomials of two lengths."""
    if any(v.ring != ring for v in items):
        raise StructuralError("mixed rings in system")


def _prune(rows, a_cols, b_cols, zero):
    """Unit-pivot pre-elimination of the system Delta^l * B P in col(A).

    Takes the mvec columns of `critical_l_columns` and clears copies of
    them; `zero` is the zero monomial.  Both pipeline stages divide by the
    annihilators with a constant lead while they build their systems, so
    the unit pivots left come from non-constant leads, unit entries of
    stage-I generators, `saturate` and `critical_l`.  For an A column c
    whose row-r part is a lone nonzero constant a, every other A and B
    column v loses (v_r / a) * c.  Then only c reaches row r, so a
    combination of A columns that is zero in row r has no c-part:
    dropping row r and column c leaves every M_l the same.  Rows are taken
    in order, each with the unit column of fewest terms, the first on a
    tie, among the columns in touching[r], a superset of those reaching r.
    Returns (rows left, A mvecs, B mvecs) over the rows left.
    """
    na = len(a_cols)
    cols = [dict(col) for col in a_cols + b_cols]
    touching = [set() for _ in range(rows)]
    for k, col in enumerate(cols):
        for i, _ in col:
            touching[i].add(k)
    kept = []
    for r in range(rows):
        unit = (r, zero)
        parts = {k: [key for key in cols[k] if key[0] == r] for k in touching[r]}
        units = [k for k, part in parts.items() if k < na and part == [unit]]
        if not units:
            kept.append(r)
            continue
        c = min(units, key=lambda k: (len(cols[k]), k))
        pivot, cols[c] = cols[c], {}
        a = Fraction(pivot.pop(unit))
        pivot = [(i, m, v / a) for (i, m), v in pivot.items()]
        del parts[c]
        for k, part in parts.items():
            col = cols[k]
            for _, mono in part:
                v = col.pop((r, mono))
                for i, m, p in pivot:
                    key = (i, mono_mul(mono, m))
                    col[key] = col.get(key, 0) - v * p
                    if not col[key]:
                        del col[key]
                    touching[i].add(k)
    new = {r: i for i, r in enumerate(kept)}
    mvs = [{(new[i], m): v for (i, m), v in col.items()} for col in cols]
    return len(kept), mvs[:na], mvs[na:]


def _with_tag(mv, power=0):
    """mv over Q[x] as an mvec over Q[x, t], t a new last variable, times t^power."""
    return {(i, m + (power,)): c for (i, m), c in mv.items()}


def _eliminate_tag(mvs, ring, j, comp_elim=0, drop=()):
    """Vectors of ring^j in the submodule that `mvs` generate.

    `mvs` live in comp_elim + j components, over the ring extended by a
    last variable t, or over the ring itself when they are free of t.  One
    Groebner basis under an order eliminating t, the ring variables `drop`
    and the first comp_elim components; its elements free of all three,
    shifted down, are the reduced basis of the elimination module.  On
    such elements the order is top-grevlex, so that is the basis's order.
    """
    nv = ring.nvars
    pk = packing(ModuleOrder(elim_order([*drop, nv]), "top", comp_elim=comp_elim), nv + 1)
    out = []
    for g in _buchberger_core([mv_primitive(pk.packed(mv))[0] for mv in mvs], pk):
        i, m = g.lt  # the order eliminates: if the lead is free of all three, all are
        if i < comp_elim or any(m[nv:]) or any(m[d] for d in drop):
            continue
        out.append(_to_vec(g.mv, g.ltc, pk, ring, j, comp_elim))
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
    return SubmoduleBasis(m1.ring, m1.j, _eliminate_tag(mvs, m1.ring, m1.j),
                          is_groebner=True)


def eliminate(basis, drop):
    """Generators of the submodule of elements free of the dropped variables."""
    ring = basis.ring
    drop = sorted({d if isinstance(d, int) else ring.index(d) for d in drop})
    mvs = [vec_to_mvec(g) for g in basis.gens]
    return SubmoduleBasis(ring, basis.j, _eliminate_tag(mvs, ring, basis.j, drop=drop),
                          is_groebner=True)


def poly_exact_div(p, f):
    """Quotient p/f, divided through `_nf` against f alone as one tracked
    generator; raises DomainError when f does not divide p exactly."""
    if f.is_zero():
        raise DomainError("division by zero polynomial")
    _check_ring(p.ring, [f])
    pk = packing(top_order(), p.ring.nvars)
    (fp, fs), (work, s) = pk.primitive(PolyVec([f])), pk.primitive(PolyVec([p]))
    g = _Gen(fp, pk, rep={pk.pack(0, ()): 1}, primitive=True)
    rem, rep, scale = _nf(work, {0: [g]}, pk, rep={})
    if rem:
        raise DomainError("polynomial division is not exact")
    # scale * s * p = -rep * fp, with fp = fs * f
    return _to_vec(rep, -scale * s / fs, pk, p.ring, 1)[0]


def saturate(basis, f):
    """M : f^infinity = {g : f^l * g in M for some l}, as the module M_inf
    of critical_l_columns with A the generators of M, B the identity,
    Delta = f."""
    _check_ring(basis.ring, [f])
    zero = (0,) * basis.ring.nvars
    b_cols = [{(i, zero): Fraction(1)} for i in range(basis.j)]
    return critical_l_columns(basis.j, [vec_to_mvec(g) for g in basis.gens], b_cols, f)[1]


def critical_l(a_gens, b_gens, delta):
    """`critical_l_columns` of A and B given as column vectors, for outside
    callers; an empty B or columns of unequal length raise StructuralError."""
    if not b_gens:
        raise StructuralError("empty B matrix")
    rows = len(b_gens[0])
    if any(len(g) != rows for g in (*a_gens, *b_gens)):
        raise StructuralError("A/B row mismatch")
    _check_ring(delta.ring, (*a_gens, *b_gens))
    return critical_l_columns(rows, [vec_to_mvec(g) for g in a_gens],
                              [vec_to_mvec(g) for g in b_gens], delta)


def critical_l_columns(rows, a_cols, b_cols, delta):
    """Critical exponent of the chain M_l = {P : Delta^l * B P in col(A)}.

    A and B have `rows` rows and come as mvec columns {(row, monomial):
    nonzero coefficient}, which are not modified.  The chain ascends to
    M_inf = {P : Delta^l * B P in col(A) for some l}.  First `_prune`
    removes each row with a unit pivot in A, which leaves every M_l
    unchanged; systems divided by constant leads have few left.
    M_inf comes from one Groebner basis over Q[x, t] of
    (B_k, e_k), (A_j, 0) and ((t*Delta - 1) e_i, 0), under an order
    eliminating the row components and t (the Rabinowitsch trick): its
    elements free of both are the reduced basis of M_inf.  For each of
    them the least l with Delta^l * B g in col(A) is read off by normal
    forms against one basis of col(A); l0 is the largest.  As M_l = M_l+1
    forces M_l+1 = M_l+2, l0 is the first index where the chain stops
    growing.  A constant Delta, or no row left, gives M_l = M_0 for every
    l: then l0 = 0 and M_0 comes from the same elimination without t and
    the Rabinowitsch generators.  Returns (l0, basis of M_l0).
    """
    if delta.is_zero():
        raise DomainError("Delta must be nonzero")
    ring = delta.ring
    kk = len(b_cols)
    rows, a_cols, b_cols = _prune(rows, a_cols, b_cols, (0,) * ring.nvars)
    tag = rows > 0 and not delta.is_constant()
    one = (0,) * (ring.nvars + tag)
    mvs = b_cols + a_cols
    if tag:
        mvs = [_with_tag(col) for col in mvs]
        rab = {m + (1,): c for m, c in delta.terms.items()}
        rab[one] = Fraction(-1)
        mvs += [{(i, m): c for m, c in rab.items()} for i in range(rows)]
    for k in range(kk):
        mvs[k][(rows + k, one)] = Fraction(1)
    gens = _eliminate_tag(mvs, ring, kk, comp_elim=rows)
    if not tag:
        return 0, SubmoduleBasis(ring, kk, gens, is_groebner=True)

    pk = packing(top_order(), ring.nvars)
    col_a = _index(_buchberger_core([mv_primitive(pk.packed(c))[0] for c in a_cols], pk))
    b_cols = [pk.packed(col) for col in b_cols]

    def residue(mv):
        # a positive multiple of the normal form modulo col(A), which is
        # all that the test for zero needs
        return _nf(mv_primitive(mv)[0], col_a, pk)[0]

    l0 = 0
    for g in gens:
        bg = {}
        for k, col in enumerate(b_cols):
            for m, c in g[k].terms.items():
                _mv_axpy(bg, -c, pk.shift(m), col)
        rem = residue(bg)
        l = 0
        while rem:
            nxt = {}
            for m, c in delta.terms.items():
                _mv_axpy(nxt, -c, pk.shift(m), rem)
            rem = residue(nxt)
            l += 1
        l0 = max(l0, l)
    return l0, SubmoduleBasis(ring, kk, gens, is_groebner=True)
