"""Solution modules of differential constraints on graph strata.

Stage I:  operators differentiating graph variables only.  Membership
reduces, through division by annihilator powers, to solvability of a
finite linear system over the base ring with degree-bounded unknowns.
The degree bounds D3/D4 are the ones the cofactor-reduction lemma
guarantees.  Annihilators with a constant lead are divided out while
the system is built; the others enter as cofactor columns.  The
critical-exponent search turns the "for some power of Delta" quantifier
into a fixed exponent, and the stage finishes with a second
critical-exponent computation whose solution module's leading
components generate the answer.

Stage II: operators differentiating y and z blocks; produces the
z-independent solutions over the (x, y)-ring from stage I's generators
by a z-degree-bounded solvability system.  Both stages hand their
systems to `critical_l_columns` as sparse columns {row: nonzero
Polynomial over the base ring}, built from the bucketed entries.

Stage IV: arbitrary polynomial-coefficient operators; the tangent frame
rewrites away x-derivatives, stage II handles each rewritten piece, and
the results intersect.

Main: a stratified semialgebraic operator, given per stratum by a
rational coefficient table over lifted coefficient slots; each stratum
contributes a module through stage IV and a linear pullback, and the
final module is the intersection over the strata.  Stage IV runs once
per distinct (ring, annihilators, reduced vanishing-ideal basis, lifted
operator) of one call, since U and the witness act only through the
vanishing ideal and T only after stage IV; repeats reuse its module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import add

from .errors import DomainError, StructuralError
from .groebner import (SubmoduleBasis, buchberger, critical_l_columns,
                       full_module, intersect, normal_form)
from .operators import (build_tangent_frame, eliminate_x_derivatives,
                        lift_operator)
from .poly import (Polynomial, PolyVec, Ring, linear_change_of_vars,
                   mat_inverse)
from .quasimonic import delta_of, reduce_by_tables, remainder_tables
from .vanishing import Stratum, complexify


@dataclass
class ModuleResult:
    basis: SubmoduleBasis
    provenance: list = field(default_factory=list)


def _note(logs, key, value):
    logs.append("%s=%s" % (key, value))


def _restrict(p, small):
    """Reinterpret p over small, a prefix of its ring; the other variables
    must be absent."""
    k = small.nvars
    if any(any(m[k:]) for m in p.terms):
        raise StructuralError("polynomial sticks out of the subring")
    return Polynomial(small, {m[:k]: c for m, c in p.terms.items()})


def _bucket(rows, prefix, colkey, terms, k):
    """Add the polynomial with `terms`, split over monomials in the variables
    from index k on, to column colkey of the rows keyed (prefix, that
    monomial); each entry is a {monomial in the first k variables: coeff}."""
    for m, c in terms.items():
        entry = rows.setdefault((prefix, m[k:]), {}).setdefault(colkey, {})
        base = m[:k]
        entry[base] = entry[base] + c if base in entry else c


def _sparse_columns(rows, na, nb, small):
    """(row count, A columns, B columns) of bucketed rows, each column a
    {row: nonzero Polynomial over the base ring}, rows numbered in sorted
    key order; A has columns ("A", 0..na-1) and B columns ("B", 0..nb-1)."""
    cols = {"A": [{} for _ in range(na)], "B": [{} for _ in range(nb)]}
    for i, key in enumerate(sorted(rows)):
        for (kind, ci), entry in rows[key].items():
            p = Polynomial(small, entry)
            if p.terms:
                cols[kind][ci][i] = p
    return len(rows), cols["A"], cols["B"]


def _box_monomials(ring, bounds):
    """Full-length monomials with var exponent < bounds[var], zero elsewhere."""
    vars_ = sorted(bounds)
    return [tuple(dict(zip(vars_, combo)).get(i, 0) for i in range(ring.nvars))
            for combo in product(*(range(bounds[v]) for v in vars_))]


def _total_monomials(ring, idxs, maxdeg):
    """Full-length monomials over idxs with total degree <= maxdeg."""
    return [m for m in _box_monomials(ring, dict.fromkeys(idxs, maxdeg + 1))
            if sum(m) <= maxdeg]


def _solution_from_final_system(ring, j, anns, power, delta, pk_vecs, logs):
    """Critical-exponent search for Delta^l P = sum H_mu ann_mu^power + sum G_k P_k;
    returns the module of admissible P."""
    a_cols = [{comp: pw} for pw in (qm.poly ** power for qm in anns)
              for comp in range(j)]
    a_cols += [{r: p for r, p in enumerate(v.comps) if p.terms} for v in pk_vecs]
    b_cols = [{r: Polynomial.one(ring)} for r in range(j)]
    l1, module = critical_l_columns(j, a_cols, b_cols, delta)
    _note(logs, "final_l", l1)
    return module


def graph_solution_module(stratum, op, vanishing=None, logs=None):
    """Generators of {P : op(Q P) = 0 on the stratum for all Q}, over the
    stratum's full local ring.  op must differentiate graph variables only.

    The stage-I system asks Delta^l * op(x^g P) to lie in the span of S
    columns (vanishing-ideal generators times box monomials) and P columns
    (an annihilator times a monomial of graph degree <= D4); every entry
    has graph degree <= D3.  An annihilator w^D + (lower terms over Q[x])
    with a constant lead gets no P columns: all entries are reduced modulo
    it instead.  Every M_l stays the same, since an entry that reduces to
    zero is that annihilator times a quotient of graph degree <= D3 - D = D4,
    which the P columns covered."""
    logs = logs if logs is not None else []
    ring = stratum.ring
    j = op.ncomps
    gidx = stratum.graph_indices()
    if op.derivative_vars() - set(gidx):
        raise StructuralError("operator differentiates base variables")
    if op.is_zero():
        _note(logs, "stage1", "zero-operator")
        return full_module(ring, j)

    if vanishing is None:
        vanishing = complexify(stratum)
    svecs = [g[0] for g in vanishing.groebner().gens]

    anns = stratum.annihilators()
    m_ord = max(op.order(), 0)
    power = m_ord + 1
    delta = delta_of(anns, ring)
    units = [qm for qm in anns if qm.lead.is_constant()]

    ring_x = Ring.make(nx=stratum.n)

    # degree data
    d1_box = {qm.var: power * qm.deg for qm in anns}
    _note(logs, "D1_box", sorted(d1_box.values()))
    basis1 = _box_monomials(ring, d1_box)
    gammas = _total_monomials(ring, gidx, m_ord)

    d2_box = {qm.var: qm.deg for qm in anns}
    basis2 = _box_monomials(ring, d2_box)
    _note(logs, "D2_box", sorted(d2_box.values()))

    # realized degree of every combination the cofactor bound must cover
    lhs = {(gamma, dm, comp): op.apply_monomial(tuple(map(add, gamma, dm)), comp)
           for gamma in gammas for dm in basis1 for comp in range(j)}
    max_s_deg = max((s.degree_in_vars(gidx) for s in svecs), default=0)
    box2_total = sum(b - 1 for b in d2_box.values())
    d3 = max([box2_total + max_s_deg] + [qm.deg for qm in anns]
             + [v.degree_in_vars(gidx) for v in lhs.values()])
    _note(logs, "D3", d3)
    d4 = {qm.var: d3 - qm.deg for qm in anns}
    _note(logs, "D4", sorted(d4.values()))

    # assemble the bounded linear system over the base ring; the P columns
    # of the other annihilators need only monomials reduced modulo `units`
    tables = remainder_tables(units, d3)
    bcols = [(comp, delta_m) for comp in range(j) for delta_m in basis1]
    pmonos = {qnum: [mono for mono in _total_monomials(ring, gidx, d4[qm.var])
                     if all(mono[u.var] < u.deg for u in units)]
              for qnum, qm in enumerate(anns) if qm not in units}
    acols = []
    for gamma in gammas:
        for snum, s in enumerate(svecs):
            for mono in basis2:
                acols.append(("S", gamma, snum, mono))
        for qnum, monos in pmonos.items():
            acols += [("P", gamma, qnum, mono) for mono in monos]

    rows = {}
    for gamma in gammas:
        for ci, (comp, delta_m) in enumerate(bcols):
            _bucket(rows, gamma, ("B", ci), reduce_by_tables(
                lhs[(gamma, delta_m, comp)].terms, tables), stratum.n)
    for ci, col in enumerate(acols):
        kind, gamma, idx, mono = col
        base = svecs[idx] if kind == "S" else anns[idx].poly
        _bucket(rows, gamma, ("A", ci), reduce_by_tables(
            (base * Polynomial.monomial(ring, mono)).terms, tables), stratum.n)

    nrows, a_cols, b_cols = _sparse_columns(rows, len(acols), len(bcols), ring_x)
    delta_x = _restrict(delta, ring_x)
    l0, coeff_module = critical_l_columns(nrows, a_cols, b_cols, delta_x)
    _note(logs, "stage1_l", l0)
    _note(logs, "stage1_coeff_gens", len(coeff_module.gens))

    pk_vecs = []
    for gen in coeff_module.gens:
        comps = [Polynomial.zero(ring) for _ in range(j)]
        for ci, (comp, delta_m) in enumerate(bcols):
            c = gen[ci].lift(ring)
            if not c.is_zero():
                comps[comp] = comps[comp] + c * Polynomial.monomial(ring, delta_m)
        vec = PolyVec(comps)
        if not vec.is_zero():
            pk_vecs.append(vec)

    module = _solution_from_final_system(ring, j, anns, power, delta, pk_vecs, logs)
    _note(logs, "stage1_gens", len(module.gens))
    return module


def algorithm_I(stratum, op, vanishing=None):
    """Stage I as a public operation: strata without a z-block."""
    if stratum.p != 0:
        raise StructuralError("stage I expects a stratum without z-block")
    logs = []
    basis = graph_solution_module(stratum, op, vanishing, logs)
    return ModuleResult(basis, logs)


def _zfree_solution_module(stratum, op, vanishing=None, logs=None):
    """Generators over the (x, y)-ring of the z-independent part of the
    stage-I module; equals stage I itself when the stratum has no z-block."""
    logs = logs if logs is not None else []
    ring = stratum.ring
    j = op.ncomps
    ring_xy = Ring.make(nx=stratum.n, ny=stratum.m)
    kxy = ring_xy.nvars

    inner = graph_solution_module(stratum, op, vanishing, logs)
    if stratum.p == 0:
        gens = [PolyVec([_restrict(p, ring_xy) for p in g.comps])
                for g in inner.gens]
        return SubmoduleBasis(ring_xy, j, gens)

    pk = list(inner.gens)
    zidx = tuple(range(kxy, ring.nvars))
    zanns = stratum.annihilators()[stratum.m:]
    m_ord = max(op.order(), 0)
    power = m_ord + 1
    delta_hat = delta_of(zanns, ring)

    if not pk:
        _note(logs, "stage2", "inner-module-zero")
        return SubmoduleBasis(ring_xy, j, [])

    zbox = {qm.var: power * qm.deg for qm in zanns}
    _note(logs, "stage2_zbox", sorted(zbox.values()))
    abasis = _box_monomials(ring, zbox)
    box_total = sum(b - 1 for b in zbox.values())
    d2 = max((box_total + max(p.degree_in_vars(zidx) for p in v.comps)
              for v in pk), default=0)
    d2 = max(d2, max(power * qm.deg for qm in zanns))
    _note(logs, "stage2_D2", d2)
    hbound = {qm.var: d2 - power * qm.deg for qm in zanns}

    acols = []
    for knum in range(len(pk)):
        for mono in abasis:
            acols.append(("P", knum, None, mono))
    for lnum, qm in enumerate(zanns):
        for comp in range(j):
            for mono in _total_monomials(ring, zidx, hbound[qm.var]):
                acols.append(("H", lnum, comp, mono))

    rows = {}
    for ci, col in enumerate(acols):
        kind, idx, comp, mono = col
        mult = Polynomial.monomial(ring, mono)
        if kind == "P":
            for c in range(j):
                _bucket(rows, c, ("A", ci), (pk[idx][c] * mult).terms, kxy)
        else:
            _bucket(rows, comp, ("A", ci), ((zanns[idx].poly ** power) * mult).terms, kxy)
    # B puts P_c into the z-free row of component c
    for c in range(j):
        _bucket(rows, c, ("B", c), Polynomial.one(ring).terms, kxy)

    nrows, a_cols, b_cols = _sparse_columns(rows, len(acols), j, ring_xy)
    delta_xy = _restrict(delta_hat, ring_xy)
    l0, module = critical_l_columns(nrows, a_cols, b_cols, delta_xy)
    _note(logs, "stage2_l", l0)
    _note(logs, "stage2_gens", len(module.gens))
    return module


def algorithm_II(stratum, op, vanishing=None):
    """Stage II as a public operation: strata with a z-block, operators
    differentiating the y and z blocks only."""
    if stratum.p < 1:
        raise StructuralError("stage II expects a z-block")
    logs = []
    basis = _zfree_solution_module(stratum, op, vanishing, logs)
    return ModuleResult(basis, logs)


def algorithm_IV(stratum, op, vanishing=None):
    """Polynomial-coefficient operators over one stratum: rewrite away the
    x-derivatives, run stage II on every piece, intersect."""
    logs = []
    ring = stratum.ring
    j = op.ncomps
    ring_xy = Ring.make(nx=stratum.n, ny=stratum.m)
    if op.is_zero():
        return ModuleResult(full_module(ring_xy, j), ["stage4=zero-operator"])
    if vanishing is None:
        vanishing = complexify(stratum)
    frame = build_tangent_frame(stratum, vanishing)
    d, family = eliminate_x_derivatives(op, frame)
    _note(logs, "rewrite_D", d)
    _note(logs, "rewrite_pieces", len(family))
    result = None
    for alpha in sorted(family):
        piece = family[alpha]
        _note(logs, "piece", "".join(str(a) for a in alpha))
        mod = _zfree_solution_module(stratum, piece, vanishing, logs)
        result = mod if result is None else intersect(result, mod)
        _note(logs, "intersect_gens", len(result.gens))
    if result is None:
        result = full_module(ring_xy, j)
    return ModuleResult(result, logs)


# -- stratified operators and the main algorithm ------------------------------

@dataclass
class OperatorStratum:
    """One stratum of a stratified operator: local graph data, the rational
    coefficient table, and the ambient linear map (identity when None)."""

    stratum: Stratum
    entries: list            # (lam, comp, ax, ay, omega)
    t_ambient: list = None   # n x n rational matrix, ambient -> local

    def __post_init__(self):
        if self.stratum.T is not None:
            raise StructuralError("pipeline strata carry their map in t_ambient")
        n = self.stratum.n + self.stratum.m
        if self.t_ambient is not None:
            self.t_ambient = [[Fraction(v) for v in row] for row in self.t_ambient]
            if len(self.t_ambient) != n or any(len(r) != n for r in self.t_ambient):
                raise StructuralError("ambient map has wrong shape")


@dataclass
class StratifiedOperator:
    n: int                   # ambient dimension
    j: int                   # vector length
    k: int                   # number of lifted coefficient slots
    strata: list             # of OperatorStratum

    def __post_init__(self):
        for os in self.strata:
            st = os.stratum
            if st.n + st.m != self.n:
                raise StructuralError("stratum does not fit the ambient dimension")
            if st.p != self.k:
                raise StructuralError("stratum z-block must match the coefficient count")


def main_mclosure(sop, check_samples=0, seed=0):
    """Generators of the module of polynomial vectors P with L(Q P) = 0 on
    all of ambient space for every polynomial Q, for the stratified
    semialgebraic operator L described by `sop`.

    A true `check_samples` switches on the exact certificate of
    `check_on_stratum`: after the intersection, each stratum checks its
    own stage-IV generators and the returned generators, pulled back
    through its T^-1, against its vanishing ideal and lifted operator.
    The count itself and `seed` are ignored; both are still accepted."""
    amb = Ring.make(nx=sop.n)
    ident = {i: i for i in range(sop.n)}
    logs = []
    result = None
    parts = {}   # stratum key -> ModuleResult, for this call only
    checks = []
    for snum, os in enumerate(sop.strata):
        st = os.stratum
        _note(logs, "stratum", snum)
        op = lift_operator(os.entries, st.ring, sop.j, st.n, st.m, st.p)
        vanishing = complexify(st)
        # everything algorithm_IV reads, as canonical text; the arity j is
        # the same for every stratum
        key = (st.ring.names, st.ring.blocks, (st.n, st.m, st.p),
               tuple(p.text() for p in st.anns_y + st.anns_z),
               tuple(g.text() for g in vanishing.groebner().gens), op.text())
        if key not in parts:
            parts[key] = algorithm_IV(st, op, vanishing)
        part = parts[key]
        logs.extend("s%d.%s" % (snum, line) for line in part.provenance)
        if check_samples:
            checks.append((os, op, vanishing, part.basis))
        gens = []
        for g in part.basis.gens:
            comps = []
            for p in g.comps:
                q = p.lift(amb, ident)
                if os.t_ambient is not None:
                    q = linear_change_of_vars(q, os.t_ambient)
                comps.append(q)
            gens.append(PolyVec(comps))
        contrib = SubmoduleBasis(amb, sop.j, gens)
        _note(logs, "stratum_gens", len(contrib.gens))
        result = contrib if result is None else intersect(result, contrib)
        _note(logs, "running_gens", len(result.gens))
    if result is None:
        result = full_module(amb, sop.j)
    if result.gens:
        result = buchberger(result)
    for os, op, vanishing, local in checks:
        pulled = result.gens
        if os.t_ambient is not None:
            tinv = mat_inverse(os.t_ambient)
            pulled = [linear_change_of_vars(g, tinv) for g in pulled]
        gens = local.gens + tuple(PolyVec([p.lift(local.ring, ident) for p in g.comps])
                                  for g in pulled)
        check_on_stratum(os.stratum, op, SubmoduleBasis(local.ring, sop.j, gens),
                         vanishing)
    return ModuleResult(result, logs)


# -- exact soundness certificate ----------------------------------------------

def check_on_stratum(stratum, op, basis, vanishing=None, nsamples=None, seed=None):
    """Exact soundness certificate: raise DomainError unless op(x^g P)
    reduces to zero against the stratum's vanishing ideal I for every
    generator P and every monomial x^g in the variables op differentiates
    with |g| <= ord op.

    That finite set covers every polynomial multiplier Q.  A variable op
    does not differentiate commutes with op, and I is an ideal, so only
    monomials in the differentiated variables matter.  For one of those,
    op(x_i R) = x_i op(R) + [op, x_i](R), where [op, x_i] has lower order
    and differentiates no new variable; induction on the order, then on
    |g|, reduces every x^g to the checked ones.  `nsamples` and `seed`
    are ignored; they are still accepted."""
    ring = stratum.ring
    if vanishing is None:
        vanishing = complexify(stratum)
    gb = vanishing.groebner()
    mults = [Polynomial.monomial(ring, m) for m in
             _total_monomials(ring, sorted(op.derivative_vars()), op.order())]
    lift_map = {i: i for i in range(stratum.n + stratum.m)}
    for g in basis.gens:
        if g.ring.nvars != ring.nvars:
            g = PolyVec([p.lift(ring, lift_map) for p in g.comps])
        for q in mults:
            if not normal_form(op.apply(g.scale(q)), gb).is_zero():
                raise DomainError("soundness certificate failed: generator is "
                                  "not annihilated on the stratum")
    return True
