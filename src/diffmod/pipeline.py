"""Solution modules of differential constraints on graph strata.

Stage I:  operators differentiating graph variables only.  Membership
reduces, through division by annihilator powers, to solvability of a
finite linear system over the base ring with degree-bounded unknowns.
The degree bounds D3/D4 are the ones the cofactor-reduction lemma
guarantees.  The critical-exponent search turns the "for some power of
Delta" quantifier into a fixed exponent, and the stage finishes with a
second critical-exponent computation whose solution module's leading
components generate the answer.

Stage II: operators differentiating y and z blocks; produces the
z-independent solutions over the (x, y)-ring from stage I's generators
by a z-degree-bounded solvability system.

Both stages, and stage I's final system, describe each column as
(row prefix, terms) parts, and `_solve_system` adds them into the mvec
columns of `critical_l_columns`.  Both stages follow one annihilator
rule (`_annihilator_rule`): an annihilator power with a constant lead
is divided out of every entry, any other gets cofactor columns.

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
from itertools import product
from operator import add

from .errors import DomainError, StructuralError
from .groebner import (SubmoduleBasis, critical_l_columns, full_module,
                       intersect, normal_form)
from .operators import (build_tangent_frame, eliminate_x_derivatives,
                        lift_operator)
from .poly import Polynomial, PolyVec, Ring, mat_inverse
from .quasimonic import (QuasiMonic, delta_of, reduce_by_tables,
                         remainder_tables)
from .vanishing import Stratum, ambient_map, complexify, meet, pull_back


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


def _times(p, mono):
    """Terms of the polynomial p times the monomial mono."""
    return {tuple(map(add, m, mono)): c for m, c in p.terms.items()}


def _solve_system(small, a_parts, b_parts, delta, units=()):
    """`critical_l_columns` of the bounded system over `small`, a prefix of
    the full ring, whose A and B columns are lists of (row prefix,
    {monomial: coeff}) parts over the full ring.  Each part is reduced
    modulo the constant-lead quasi-monic `units`; its term m then adds to
    the column's mvec at row (prefix, m[k:]) and base monomial m[:k],
    k = small.nvars.  Rows are numbered in sorted key order."""
    k = small.nvars
    tables = remainder_tables(units)
    cols = [[{} for _ in parts] for parts in (a_parts, b_parts)]
    for kind, parts in zip(cols, (a_parts, b_parts)):
        for col, col_parts in zip(kind, parts):
            for prefix, terms in col_parts:
                for m, c in reduce_by_tables(terms, tables).items():
                    key = ((prefix, m[k:]), m[:k])
                    col[key] = col.get(key, 0) + c
    rows = sorted({row for kind in cols for col in kind for row, _ in col})
    index = {row: i for i, row in enumerate(rows)}
    a_cols, b_cols = [[{(index[row], m): c for (row, m), c in col.items() if c}
                       for col in kind] for kind in cols]
    return critical_l_columns(len(rows), a_cols, b_cols, _restrict(delta, small))


def _annihilator_rule(ring, qs, idxs, top):
    """(units, cofactors) for quasi-monic qs in a system whose entries have
    degree <= top in the variables idxs.  The units, the qs with a constant
    lead, are divided out of every entry.  Every other q gets cofactor
    columns, one list per q: q times each monomial over idxs of degree
    <= top - deg q that is reduced modulo the units."""
    units = [q for q in qs if q.lead.is_constant()]
    cofactors = [[_times(q.poly, mono) for mono in _total_monomials(ring, idxs, top - q.deg)
                  if all(mono[u.var] < u.deg for u in units)]
                 for q in qs if not q.lead.is_constant()]
    return units, cofactors


def _box_monomials(ring, bounds):
    """Full-length monomials with var exponent < bounds[var], zero elsewhere."""
    vars_ = sorted(bounds)
    return [tuple(dict(zip(vars_, combo)).get(i, 0) for i in range(ring.nvars))
            for combo in product(*(range(bounds[v]) for v in vars_))]


def _total_monomials(ring, idxs, maxdeg):
    """Full-length monomials over idxs with total degree <= maxdeg."""
    return [m for m in _box_monomials(ring, dict.fromkeys(idxs, maxdeg + 1))
            if sum(m) <= maxdeg]


def _annihilator_powers(op, anns):
    """Each annihilator to the power that both stages reduce by: ord op + 1
    if op differentiates its variable, else 1."""
    return [QuasiMonic(qm.poly ** (max(op.order(), 0) + 1), qm.var)
            if qm.var in op.derivative_vars() else qm for qm in anns]


def _multipliers(ring, op):
    """The monomials x^g that certify a solution P of op: g over the
    variables op differentiates, |g| <= ord op (see check_on_stratum)."""
    return _total_monomials(ring, sorted(op.derivative_vars()), op.order())


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
    which the P columns covered.

    The box and the final system take ann_w^(ord+1) for a graph variable w
    that op differentiates, and ann_w for any other: ann_w couples no second
    graph variable, so op commutes with it and ann_w * R is a solution."""
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
    powers = _annihilator_powers(op, anns)
    delta = delta_of(anns, ring)

    # degree data
    _note(logs, "D1_box", sorted(q.deg for q in powers))
    basis1 = _box_monomials(ring, {q.var: q.deg for q in powers})
    gammas = _multipliers(ring, op)

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
    _note(logs, "D4", sorted(d3 - qm.deg for qm in anns))

    # the bounded linear system over the base ring, one row prefix per gamma
    units, cofactors = _annihilator_rule(ring, anns, gidx, d3)
    bcols = [(comp, delta_m) for comp in range(j) for delta_m in basis1]
    a_parts, b_parts = [], [[] for _ in bcols]
    for gamma in gammas:
        a_parts += [[(gamma, _times(s, mono))] for s in svecs for mono in basis2]
        a_parts += [[(gamma, terms)] for cols in cofactors for terms in cols]
        for parts, (comp, delta_m) in zip(b_parts, bcols):
            parts.append((gamma, lhs[(gamma, delta_m, comp)].terms))
    n = stratum.n
    l0, coeff_module = _solve_system(Ring.make(nx=n), a_parts, b_parts, delta, units)
    _note(logs, "stage1_l", l0)
    _note(logs, "stage1_coeff_gens", len(coeff_module.gens))

    # the final system Delta^l P = sum H_mu ann_mu^power + sum G_k P_k over
    # the full ring, each P_k from a generator's nonzero coordinates
    a_parts = [[(comp, q.poly.terms)] for q in powers for comp in range(j)]
    a_parts += [[(comp, {m + delta_m[n:]: c for m, c in gen[ci].terms.items()})
                 for ci, (comp, delta_m) in enumerate(bcols) if gen[ci].terms]
                for gen in coeff_module.gens]
    b_parts = [[(c, Polynomial.one(ring).terms)] for c in range(j)]
    l1, module = _solve_system(ring, a_parts, b_parts, delta)
    _note(logs, "final_l", l1)
    _note(logs, "stage1_gens", len(module.gens))
    return module


def algorithm_I(stratum, op, vanishing=None):
    """Stage I as a public operation: strata without a z-block."""
    if stratum.p != 0:
        raise StructuralError("stage I expects a stratum without z-block")
    logs = []
    return ModuleResult(graph_solution_module(stratum, op, vanishing, logs), logs)


def _zfree_solution_module(stratum, op, vanishing=None, logs=None):
    """Generators over the (x, y)-ring of the z-independent part of the
    stage-I module; equals stage I itself when the stratum has no z-block.

    The system asks Delta^l * P to lie in the span of the stage-I
    generators times z-box monomials and of cofactor columns zann_w^e times
    z-monomials; every entry has z-degree <= D2.  The power e is ord + 1 if
    op differentiates w, else 1, as zann_w * e_c then lies in the stage-I
    module already.  As in stage I, a power with a constant lead is
    divided out instead: the quotients have z-degree <= D2 - deg, and as no
    annihilator couples two graph variables, the reduction commutes with
    the other powers."""
    logs = logs if logs is not None else []
    ring = stratum.ring
    j = op.ncomps
    ring_xy = Ring.make(nx=stratum.n, ny=stratum.m)

    inner = graph_solution_module(stratum, op, vanishing, logs)
    if stratum.p == 0:
        gens = [PolyVec([_restrict(p, ring_xy) for p in g.comps])
                for g in inner.gens]
        return SubmoduleBasis(ring_xy, j, gens)

    pk = inner.gens
    zidx = tuple(range(ring_xy.nvars, ring.nvars))
    if not pk:
        _note(logs, "stage2", "inner-module-zero")
        return SubmoduleBasis(ring_xy, j, [])

    zanns = stratum.annihilators()[stratum.m:]
    zpowers = _annihilator_powers(op, zanns)
    zbox = {q.var: q.deg for q in zpowers}
    _note(logs, "stage2_zbox", sorted(zbox.values()))
    abasis = _box_monomials(ring, zbox)
    box_total = sum(b - 1 for b in zbox.values())
    d2 = max([box_total + max(p.degree_in_vars(zidx) for p in v.comps) for v in pk]
             + [q.deg for q in zpowers])
    _note(logs, "stage2_D2", d2)

    # rows (component, z-monomial); B puts P_c into the z-free row of c
    units, cofactors = _annihilator_rule(ring, zpowers, zidx, d2)
    a_parts = [[(c, _times(v[c], mono)) for c in range(j)] for v in pk for mono in abasis]
    a_parts += [[(comp, terms)] for cols in cofactors for comp in range(j) for terms in cols]
    b_parts = [[(c, Polynomial.one(ring).terms)] for c in range(j)]
    l0, module = _solve_system(ring_xy, a_parts, b_parts, delta_of(zanns, ring), units)
    _note(logs, "stage2_l", l0)
    _note(logs, "stage2_gens", len(module.gens))
    return module


def algorithm_II(stratum, op, vanishing=None):
    """Stage II as a public operation: strata with a z-block, operators
    differentiating the y and z blocks only."""
    if stratum.p < 1:
        raise StructuralError("stage II expects a z-block")
    logs = []
    return ModuleResult(_zfree_solution_module(stratum, op, vanishing, logs), logs)


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
        self.t_ambient = ambient_map(self.t_ambient, self.stratum.n + self.stratum.m)


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


def main_mclosure(sop, check=False):
    """Generators of the module of polynomial vectors P with L(Q P) = 0 on
    all of ambient space for every polynomial Q, for the stratified
    semialgebraic operator L described by `sop`.

    A true `check` switches on the exact certificate of
    `check_on_stratum`: after the intersection, each stratum checks its
    own stage-IV generators and the returned generators, pulled back
    through its T^-1, against its vanishing ideal and lifted operator.
    Each distinct (stratum key, T) pair is met, by `meet`, and certified once."""
    amb = Ring.make(nx=sop.n)
    logs = []
    result = None
    parts, pulled = {}, {}   # key -> ModuleResult, (key, T) -> contribution
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
        seen = len(pulled)
        result, contrib = meet(result, part.basis, amb, os.t_ambient, key, pulled)
        if check and len(pulled) > seen:
            checks.append((os, op, vanishing, part.basis))
        _note(logs, "stratum_gens", len(contrib.gens))
        _note(logs, "running_gens", len(result.gens))
    if result is None:
        result = full_module(amb, sop.j)
    result = result.groebner()
    for os, op, vanishing, local in checks:
        tinv = None if os.t_ambient is None else mat_inverse(os.t_ambient)
        pulled = pull_back(result, local.ring, tinv)
        check_on_stratum(os.stratum, op,
                         SubmoduleBasis(local.ring, sop.j, local.gens + pulled.gens),
                         vanishing)
    return ModuleResult(result, logs)


# -- exact soundness certificate ----------------------------------------------

def check_on_stratum(stratum, op, basis, vanishing=None):
    """Exact soundness certificate: raise DomainError unless op(x^g P)
    reduces to zero against the stratum's vanishing ideal I for every
    generator P and every monomial x^g in the variables op differentiates
    with |g| <= ord op.

    That finite set covers every polynomial multiplier Q.  A variable op
    does not differentiate commutes with op, and I is an ideal, so only
    monomials in the differentiated variables matter.  For one of those,
    op(x_i R) = x_i op(R) + [op, x_i](R), where [op, x_i] has lower order
    and differentiates no new variable; induction on the order, then on
    |g|, reduces every x^g to the checked ones."""
    ring = stratum.ring
    if vanishing is None:
        vanishing = complexify(stratum)
    gb = vanishing.groebner()
    mults = [Polynomial.monomial(ring, m) for m in _multipliers(ring, op)]
    lift_map = {i: i for i in range(stratum.n + stratum.m)}
    for g in basis.gens:
        if g.ring.nvars != ring.nvars:
            g = PolyVec([p.lift(ring, lift_map) for p in g.comps])
        for q in mults:
            if not normal_form(op.apply(g.scale(q)), gb).is_zero():
                raise DomainError("soundness certificate failed: generator is "
                                  "not annihilated on the stratum")
    return True
