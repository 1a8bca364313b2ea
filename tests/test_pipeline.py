import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from diffmod import groebner, pipeline
from diffmod import vanishing as vanishing_mod
from diffmod.errors import DomainError, StructuralError
from diffmod.groebner import (SubmoduleBasis, full_module, ideal,
                              module_equal, normal_form)
from diffmod.manifest import parse_operator_manifest
from diffmod.operators import (LinearDiffOp, build_tangent_frame,
                               eliminate_x_derivatives, lift_operator,
                               mclosure_poly_coeffs, zero_op)
from diffmod.pipeline import (OperatorStratum, StratifiedOperator, algorithm_I,
                              algorithm_II, algorithm_IV, check_on_stratum,
                              graph_solution_module, main_mclosure)
from diffmod.poly import Polynomial, PolyVec, Ring
from diffmod.realroots import SemialgebraicDescription, atom, desc_and
from diffmod.vanishing import Stratum, complexify

from conftest import within
from oracle import monomials_up_to, nullspace_sparse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.inputs import _positive_strata, indicator_manifest  # noqa: E402


def P(ring, s):
    return Polynomial.parse(ring, s)


def parabola_stratum(p=0):
    ring = Ring.make(nx=1, ny=1, nz=p)
    anns_z = [P(ring, "z1 - x1")] if p else []
    wit = [1, 1] + ([1] if p else [])
    return Stratum(n=1, m=1, p=p, ring=ring, anns_y=[P(ring, "y1 - x1^2")],
                   anns_z=anns_z, witness=wit)


def module_slice_by_brute_force(stratum, op, degcap, qdeg=None):
    """Nullspace of the conditions NF(op(Q * P), I(V)) = 0 over all monomials
    Q up to degree qdeg, on coefficient vectors of P with total degree <=
    degcap.  Returns (candidate PolyVecs, monomial basis)."""
    ring = stratum.ring
    j = op.ncomps
    gb = complexify(stratum).groebner()
    qdeg = qdeg if qdeg is not None else max(op.order(), 0) + 2
    pmonos = monomials_up_to(ring.nvars, degcap)
    cols = [(comp, m) for comp in range(j) for m in pmonos]
    qmonos = monomials_up_to(ring.nvars, qdeg)
    rows = []
    for qm in qmonos:
        per_col = []
        for (comp, m) in cols:
            mono = tuple(a + b for a, b in zip(qm, m))
            vec = PolyVec([Polynomial.monomial(ring, mono) if c == comp
                           else Polynomial.zero(ring) for c in range(j)])
            per_col.append(normal_form(op.apply(vec), gb))
        keys = sorted({mm for p_ in per_col for mm in p_.terms})
        for mm in keys:
            rows.append({ci: p_.terms[mm] for ci, p_ in enumerate(per_col)
                         if mm in p_.terms})
    basis = nullspace_sparse(rows, len(cols))
    vecs = []
    for sol in basis:
        comps = [Polynomial.zero(ring) for _ in range(j)]
        for ci, c in sol.items():
            comp, m = cols[ci]
            comps[comp] = comps[comp] + Polynomial.monomial(ring, m, c)
        vecs.append(PolyVec(comps))
    return vecs, cols


def assert_matches_brute_force(stratum, op, engine_basis, degcap):
    """Engine module and brute-force slice agree up to degree degcap."""
    ring = stratum.ring
    vecs, _ = module_slice_by_brute_force(stratum, op, degcap)
    lifted = []
    for g in engine_basis.gens:
        if g.ring.nvars != ring.nvars:
            g = PolyVec([p.lift(ring, {i: i for i in range(g.ring.nvars)})
                         for p in g.comps])
        lifted.append(g)
    engine = SubmoduleBasis(ring, op.ncomps, lifted)
    gb = engine.groebner()
    for v in vecs:
        nf = normal_form(v, gb)
        assert nf.is_zero(), "brute-force solution missing from engine module"
    # soundness: engine generators pass the exact certificate
    check_on_stratum(stratum, op, engine)


# -- stage I -----------------------------------------------------------------

def test_stage1_identity_operator_gives_vanishing_ideal():
    st = parabola_stratum()
    ring = st.ring
    L = LinearDiffOp(ring, 1, {((0, 0), 0): 1})
    res = algorithm_I(st, L)
    want = ideal(ring, [P(ring, "y1 - x1^2")])
    assert module_equal(res.basis, want)


def test_stage1_dy_squares_the_ideal():
    st = parabola_stratum()
    ring = st.ring
    L = LinearDiffOp(ring, 1, {((0, 1), 0): 1})
    res = algorithm_I(st, L)
    want = ideal(ring, [P(ring, "y1 - x1^2") * P(ring, "y1 - x1^2")])
    assert module_equal(res.basis, want)
    assert_matches_brute_force(st, L, res.basis, degcap=4)


def test_stage1_second_derivative_cubes_the_ideal():
    st = parabola_stratum()
    ring = st.ring
    L = LinearDiffOp(ring, 1, {((0, 2), 0): 1})
    res = algorithm_I(st, L)
    want = ideal(ring, [P(ring, "y1 - x1^2") ** 3])
    assert module_equal(res.basis, want)
    assert_matches_brute_force(st, L, res.basis, degcap=6)


def test_stage1_zero_operator_full_module():
    st = parabola_stratum()
    res = algorithm_I(st, zero_op(st.ring, 2))
    assert module_equal(res.basis, full_module(st.ring, 2))


def test_stage1_rejects_x_derivatives():
    st = parabola_stratum()
    L = LinearDiffOp(st.ring, 1, {((1, 0), 0): 1})
    with pytest.raises(StructuralError):
        algorithm_I(st, L)


def test_stage1_sqrt_branch_dy():
    ring = Ring.make(nx=1, ny=1)
    st = Stratum(n=1, m=1, p=0, ring=ring, anns_y=[P(ring, "y1^2 - x1")],
                 witness=[1, 1])
    L = LinearDiffOp(ring, 1, {((0, 1), 0): 1})
    res = algorithm_I(st, L)
    assert_matches_brute_force(st, L, res.basis, degcap=4)


def test_stage1_system_without_rows():
    # every entry of (y1 - x1^2)*dy1 reduces to zero modulo the annihilator,
    # so the stage-I system is born without rows and every candidate solves it
    st = parabola_stratum()
    L = LinearDiffOp(st.ring, 1, {((0, 1), 0): P(st.ring, "y1 - x1^2")})
    res = algorithm_I(st, L)
    assert module_equal(res.basis, full_module(st.ring, 1))
    assert res.provenance == ["D1_box=[2]", "D2_box=[1]", "D3=2", "D4=[1]", "stage1_l=0",
                              "stage1_coeff_gens=2", "final_l=0", "stage1_gens=1"]


def non_constant_lead_stratum(p=0):
    # the lead x1 of x1*y1^2 - 1 is not constant, so stage I does not
    # divide by it and keeps its P columns
    ring = Ring.make(nx=1, ny=1, nz=p)
    anns_z = [P(ring, "z1 - 1")] if p else []
    return Stratum(n=1, m=1, p=p, ring=ring, anns_y=[P(ring, "x1*y1^2 - 1")],
                   anns_z=anns_z, witness=[1, 1] + [1] * p)


def test_stage1_non_constant_lead_brute_force():
    st = non_constant_lead_stratum()
    L = LinearDiffOp(st.ring, 1, {((0, 1), 0): 1})
    res = algorithm_I(st, L)
    assert_matches_brute_force(st, L, res.basis, degcap=6)


def test_stage1_non_constant_lead_system_is_pruned(monkeypatch):
    # d_y1 on x1*y1^2 - 1: the lead x1 is not constant, so the stage-I
    # system keeps its P columns and is born with 8 rows; _prune clears
    # half of them by unit pivots before the elimination
    st = non_constant_lead_stratum()
    L = LinearDiffOp(st.ring, 1, {((0, 1), 0): 1})
    vanishing = complexify(st)
    systems = []
    inner_cl, inner_elim = pipeline.critical_l_columns, groebner._eliminate_tag

    def spy_cl(rows, a_cols, b_cols, delta):
        systems.append([rows])
        return inner_cl(rows, a_cols, b_cols, delta)

    def spy_elim(mvs, ring, j, comp_elim=0, drop=()):
        systems[-1].append(comp_elim)
        return inner_elim(mvs, ring, j, comp_elim, drop)

    monkeypatch.setattr(pipeline, "critical_l_columns", spy_cl)
    monkeypatch.setattr(groebner, "_eliminate_tag", spy_elim)
    within(5, lambda: algorithm_I(st, L, vanishing))
    assert systems[0] == [8, 4]


def test_stage1_undifferentiated_variable_takes_power_one():
    # y2*d_y1 does not differentiate y2, so x1*y2 - 1 enters the box and the
    # final system with power 1, while y1 - x1^2 takes power ord + 1 = 2
    ring = Ring.make(nx=1, ny=2)
    st = Stratum(n=1, m=2, p=0, ring=ring, witness=[1, 1, 1],
                 anns_y=[P(ring, "y1 - x1^2"), P(ring, "x1*y2 - 1")])
    L = LinearDiffOp(ring, 1, {((0, 1, 0), 0): P(ring, "y2")})
    res = algorithm_I(st, L)
    assert res.provenance[0] == "D1_box=[1, 2]"
    assert_matches_brute_force(st, L, res.basis, degcap=4)


# -- stage II ----------------------------------------------------------------

def test_stage2_z_free_operator_matches_stage1():
    st0 = parabola_stratum(p=0)
    st1 = parabola_stratum(p=1)
    L0 = LinearDiffOp(st0.ring, 1, {((0, 1), 0): 1})
    L1 = LinearDiffOp(st1.ring, 1, {((0, 1, 0), 0): 1})
    res0 = algorithm_I(st0, L0)
    res1 = algorithm_II(st1, L1)
    ring_xy = res1.basis.ring
    lift0 = SubmoduleBasis(ring_xy, 1,
                           [PolyVec([p.lift(ring_xy, {0: 0, 1: 1}) for p in g.comps])
                            for g in res0.basis.gens])
    assert module_equal(res1.basis, lift0)


def test_stage2_dz_operator_brute_force():
    st = parabola_stratum(p=1)
    ring = st.ring
    L = LinearDiffOp(ring, 1, {((0, 0, 1), 0): 1})   # d_z
    res = algorithm_II(st, L)
    # z-free polynomials P with d_z(Q P) = 0 on V for all Q: P must vanish
    # on V, so the module is (y1 - x1^2) over the (x, y)-ring
    ring_xy = res.basis.ring
    want = ideal(ring_xy, [Polynomial.parse(ring_xy, "y1 - x1^2")])
    assert module_equal(res.basis, want)
    # cross-check against the defining condition at low degree: candidates
    # over (x, y) only
    vecs, _ = module_slice_by_brute_force(st, L, degcap=3)
    zidx = ring.nvars - 1
    gb = res.basis.groebner()
    for v in vecs:
        if any(m[zidx] for p_ in v.comps for m in p_.terms):
            continue
        from diffmod.pipeline import _restrict
        vv = PolyVec([_restrict(p_, ring_xy) for p_ in v.comps])
        assert normal_form(vv, gb).is_zero()


def test_stage2_zero_operator():
    st = parabola_stratum(p=1)
    res = algorithm_II(st, zero_op(st.ring, 1))
    assert module_equal(res.basis, full_module(res.basis.ring, 1))


def test_stage2_mixed_leads_pinned():
    # z1 - 1 has a constant lead and is divided out during assembly, while
    # x1*y1^2 - 1 keeps its P columns; the generator as recorded before
    # stage I divided by constant leads.  The operator does not
    # differentiate z1, so z1 - 1 enters both stages with power 1
    st = non_constant_lead_stratum(p=1)
    ring = st.ring
    res = algorithm_II(st, LinearDiffOp(ring, 1, {((0, 1, 0), 0): P(ring, "z1")}))
    assert [g[0].text() for g in res.basis.gens] == ["x1^2*y1^4 - 2*x1*y1^2 + 1"]
    assert res.provenance == [
        "D1_box=[1, 4]", "D2_box=[1, 2]", "D3=4", "D4=[2, 3]", "stage1_l=0",
        "stage1_coeff_gens=0", "final_l=0", "stage1_gens=2", "stage2_zbox=[1]",
        "stage2_D2=1", "stage2_l=0", "stage2_gens=1"]


def test_stage2_non_constant_z_lead_pinned():
    # the lead x1 of x1*z1 - 1 is not constant, so stage II keeps its
    # cofactor columns; the generator as recorded before stage II divided
    # by constant leads, and power 1 for the undifferentiated z1
    ring = Ring.make(nx=1, ny=1, nz=1)
    st = Stratum(n=1, m=1, p=1, ring=ring, anns_y=[P(ring, "y1^2 - x1")],
                 anns_z=[P(ring, "x1*z1 - 1")], witness=[1, 1, 1])
    res = algorithm_II(st, LinearDiffOp(ring, 1, {((0, 1, 0), 0): P(ring, "z1")}))
    assert [g[0].text() for g in res.basis.gens] == ["y1^4 - 2*x1*y1^2 + x1^2"]
    assert res.provenance == [
        "D1_box=[1, 4]", "D2_box=[1, 2]", "D3=4", "D4=[2, 3]", "stage1_l=0",
        "stage1_coeff_gens=0", "final_l=0", "stage1_gens=2", "stage2_zbox=[1]",
        "stage2_D2=1", "stage2_l=0", "stage2_gens=1"]


# -- stage IV ----------------------------------------------------------------

def test_stage4_no_x_derivatives_matches_stage2():
    st = parabola_stratum(p=1)
    ring = st.ring
    L = LinearDiffOp(ring, 1, {((0, 1, 0), 0): P(ring, "x1")})
    a = algorithm_II(st, L)
    b = algorithm_IV(st, L)
    assert module_equal(a.basis, b.basis)


def test_stage4_identity_operator_gives_vanishing_ideal():
    ring = Ring.make(nx=1, ny=1)
    st = Stratum(n=1, m=1, p=0, ring=ring, anns_y=[P(ring, "y1^2 - x1")],
                 witness=[1, 1])
    L = LinearDiffOp(ring, 1, {((0, 0), 0): 1})
    res = algorithm_IV(st, L)
    ring_xy = res.basis.ring
    want = ideal(ring_xy, [Polynomial.parse(ring_xy, "y1^2 - x1")])
    assert module_equal(res.basis, want)


def test_stage4_dx_on_sqrt_branch_brute_force():
    # d_x on y^2 = x: membership needs P and d_x P in the vanishing ideal,
    # so the module is the square of the ideal; checked against the
    # degree-bounded brute force in both directions
    ring = Ring.make(nx=1, ny=1)
    st = Stratum(n=1, m=1, p=0, ring=ring, anns_y=[P(ring, "y1^2 - x1")],
                 witness=[1, 1])
    L = LinearDiffOp(ring, 1, {((1, 0), 0): 1})
    res = algorithm_IV(st, L)
    want = ideal(ring, [P(ring, "y1^2 - x1") * P(ring, "y1^2 - x1")])
    lifted = SubmoduleBasis(ring, 1,
                            [PolyVec([p.lift(ring, {0: 0, 1: 1}) for p in g.comps])
                             for g in res.basis.gens])
    assert module_equal(lifted, want)
    assert_matches_brute_force(st, L, res.basis, degcap=5)


def open_stratum(n):
    ring = Ring.make(nx=n)
    return Stratum(n=n, m=0, p=0, ring=ring, witness=[0] * n)


def test_stage4_flat_matches_mclosure_dx():
    st = open_stratum(1)
    ring = st.ring
    L = LinearDiffOp(ring, 1, {((1,), 0): 1})
    res = algorithm_IV(st, L)
    other = mclosure_poly_coeffs(L)
    assert not res.basis.gens and not other.gens


def test_stage4_flat_matches_mclosure_difference():
    st = open_stratum(1)
    ring = st.ring
    L = LinearDiffOp(ring, 2, {((0,), 0): 1, ((0,), 1): -1})
    res = algorithm_IV(st, L)
    other = mclosure_poly_coeffs(L)
    assert module_equal(res.basis, other)
    want = SubmoduleBasis(ring, 2, [PolyVec([Polynomial.one(ring), Polynomial.one(ring)])])
    assert module_equal(res.basis, want)


def test_stage4_flat_matches_mclosure_random():
    rng = random.Random(61)
    agreements = 0
    while agreements < 6:
        n = rng.randint(1, 2)
        ncomp = rng.randint(1, 2)
        st = open_stratum(n)
        ring = st.ring
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = tuple(rng.randint(0, 1) for _ in range(n))
            if sum(alpha) > 2:
                continue
            comp = rng.randrange(ncomp)
            coeff = Polynomial.constant(ring, rng.randint(-3, 3))
            if rng.random() < 0.5:
                coeff = coeff * Polynomial.variable(ring, 0)
            if not coeff.is_zero():
                terms[(alpha, comp)] = coeff
        if not terms:
            continue
        L = LinearDiffOp(ring, ncomp, terms)
        res = algorithm_IV(st, L)
        other = mclosure_poly_coeffs(L)
        assert module_equal(res.basis, other)
        agreements += 1


# -- main algorithm -------------------------------------------------------------

def full_space_stratum_with_unit_coeffs(n, k):
    """The whole space as one stratum; every lifted coefficient is 1."""
    ring = Ring.make(nx=n, ny=0, nz=k)
    anns_z = [Polynomial.variable(ring, n + i) - 1 for i in range(k)]
    return Stratum(n=n, m=0, p=k, ring=ring, anns_z=anns_z,
                   witness=[0] * n + [1] * k)


def test_main_polynomial_coefficients_difference():
    st = full_space_stratum_with_unit_coeffs(1, 2)
    entries = [(1, 0, (0,), (), 1), (2, 1, (0,), (), -1)]
    sop = StratifiedOperator(n=1, j=2, k=2,
                             strata=[OperatorStratum(st, entries)])
    res = main_mclosure(sop)
    amb = res.basis.ring
    want = SubmoduleBasis(amb, 2, [PolyVec([Polynomial.one(amb), Polynomial.one(amb)])])
    assert module_equal(res.basis, want)


def test_main_polynomial_coefficients_dx():
    st = full_space_stratum_with_unit_coeffs(1, 1)
    entries = [(1, 0, (1,), (), 1)]
    sop = StratifiedOperator(n=1, j=1, k=1,
                             strata=[OperatorStratum(st, entries)])
    res = main_mclosure(sop)
    assert not res.basis.gens


def indicator_stratum(stratum, t_ambient):
    """Wrap a p=0 stratum as an indicator-operator stratum: one coefficient,
    identically 1."""
    ring = Ring.make(nx=stratum.n, ny=stratum.m, nz=1)
    lift = {i: i for i in range(stratum.n + stratum.m)}
    wit = None
    if stratum.witness is not None:
        wit = list(stratum.witness) + [Fraction(1)]
    st = Stratum(n=stratum.n, m=stratum.m, p=1, ring=ring,
                 u_desc=stratum.u_desc,
                 anns_y=[p.lift(ring, lift) for p in stratum.anns_y],
                 anns_z=[Polynomial.variable(ring, ring.nvars - 1) - 1],
                 witness=wit)
    zero_ax = (0,) * stratum.n
    zero_ay = (0,) * stratum.m
    entries = [(1, 0, zero_ax, zero_ay, 1)]
    return OperatorStratum(st, entries, t_ambient)


def test_main_indicator_on_ray():
    # E = {x = y = 0, z <= -1} as in the negative-level example
    ux = Ring.make(nx=1)
    ray_ring = Ring.make(nx=1, ny=2)
    ray = Stratum(
        n=1, m=2, p=0, ring=ray_ring,
        u_desc=SemialgebraicDescription(atom(P(ux, "-1*x1 - 1"), ">"), 1),
        anns_y=[P(ray_ring, "y1"), P(ray_ring, "y2")],
        witness=[-2, 0, 0])
    endpoint_ring = Ring.make(nx=0, ny=3)
    endpoint = Stratum(
        n=0, m=3, p=0, ring=endpoint_ring,
        anns_y=[P(endpoint_ring, "y1"), P(endpoint_ring, "y2"),
                P(endpoint_ring, "y3 + 1")],
        witness=[0, 0, -1])
    t_ray = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    sop = StratifiedOperator(n=3, j=1, k=1, strata=[
        indicator_stratum(ray, t_ray),
        indicator_stratum(endpoint, None),
    ])
    res = main_mclosure(sop, check=True)
    amb = res.basis.ring
    want = ideal(amb, [Polynomial.variable(amb, 0), Polynomial.variable(amb, 1)])
    assert module_equal(res.basis, want)


# -- one stage-IV computation per distinct stratum ------------------------------

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _counting(monkeypatch, name, module=pipeline):
    """Count the calls main_mclosure makes to module.<name>."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _positive_indicator():
    return parse_operator_manifest((MANIFESTS / "level_set_positive_indicator.txt").read_text())


def test_main_computes_each_distinct_stratum_once(monkeypatch):
    # the four 2-D sheets share one stage-IV input, and so do the repeated
    # 1-D branches: 12 strata, 5 distinct.  The certificate reads only what
    # the stratum key and T fix, so each of the 6 distinct (key, T) pairs
    # is checked once: every contribution that was pulled back is checked
    stage4 = _counting(monkeypatch, "algorithm_IV")
    vanishing = _counting(monkeypatch, "complexify")
    checks = _counting(monkeypatch, "check_on_stratum")
    pulls = _counting(monkeypatch, "pull_back", vanishing_mod)
    main_mclosure(_positive_indicator(), check=True)
    assert (len(stage4), len(vanishing), len(checks)) == (5, 12, 6) == (5, 12, len(pulls))


CROSSING_LINES = """
[operator]
n = 2
j = 1
k = 1
""" + "".join("""
[stratum]
n = 1
m = 1
p = 1
U = true
anny 1 = y1^2 - x1^2
annz 1 = z1 - 1
witness = %s
[coeffs]
1 ; 1 ; (1) ; (0) ; 1
""" % w for w in ("1, 1, 1", "2, -2, 1"))


def test_main_no_sharing_across_different_vanishing_ideals(monkeypatch):
    # same annihilator, witnesses on the factors y1 - x1 and y1 + x1
    stage4 = _counting(monkeypatch, "algorithm_IV")
    res = main_mclosure(parse_operator_manifest(CROSSING_LINES))
    assert len(stage4) == 2
    assert [g.text() for g in res.basis.gens] == ["x1^4 - 2*x1^2*x2^2 + x2^4"]


def _meet_every_time(result, basis, ring, T, key, pulled):
    """The rule before (stratum key, T) pairs were met once: every stratum
    is pulled back, intersected and, with `check`, certified."""
    contrib = pulled[len(pulled)] = vanishing_mod.pull_back(basis, ring, T)
    return (contrib if result is None else vanishing_mod.intersect(result, contrib)), contrib


@pytest.mark.parametrize("check", [False, True], ids=["plain", "check"])
@pytest.mark.parametrize("listed", [(0, 4, 0), (0, 0, 4)], ids=["after-a-meet", "first-twice"])
def test_main_meets_a_repeated_stratum_once(monkeypatch, listed, check):
    # stratum 0 (a 2-D sheet) listed twice beside stratum 4 (a 1-D branch).
    # A result out of `intersect` lies in every contribution it met, so a
    # repeat after a meet changes nothing; a raw first contribution is
    # still met with its repeat, which reduces it
    sop = _positive_indicator()

    def run(idx, rule=None):
        with monkeypatch.context() as mp:
            if rule is not None:
                mp.setattr(pipeline, "meet", rule)
            counts = [_counting(mp, "pull_back", vanishing_mod),
                      _counting(mp, "intersect", vanishing_mod),
                      _counting(mp, "check_on_stratum")]
            res = main_mclosure(StratifiedOperator(
                sop.n, sop.j, sop.k, [sop.strata[i] for i in idx]), check=check)
        return res, [len(c) for c in counts]

    twice, (pulls, meets, checks) = run(listed)
    every, (pulls_every, meets_every, checks_every) = run(listed, _meet_every_time)
    once, (pulls_once, meets_once, checks_once) = run((0, 4))
    texts = [[g.text() for g in r.basis.gens] for r in (twice, every, once)]
    assert texts[0] == texts[1] == texts[2]
    assert twice.provenance == every.provenance
    assert pulls == pulls_once == pulls_every - 1 == 2
    assert checks == checks_once == (2 if check else 0)
    assert checks_every == (3 if check else 0)
    if listed == (0, 4, 0):
        assert meets == meets_once == meets_every - 1 == 1
        assert twice.provenance[:len(once.provenance)] == once.provenance
        assert twice.provenance[-1] == once.provenance[-1]
    else:
        assert meets == meets_every == meets_once + 1 == 2


def test_main_basis_independent_of_stratum_order():
    sop = _positive_indicator()
    forward = main_mclosure(sop)
    backward = main_mclosure(StratifiedOperator(sop.n, sop.j, sop.k, sop.strata[::-1]))
    assert sorted(g.text() for g in backward.basis.gens) == \
        sorted(g.text() for g in forward.basis.gens)


# -- exact soundness certificate -----------------------------------------------

def test_certificate_uses_monomials_up_to_the_operator_order(monkeypatch):
    # row (1,0;1) on the first 2-D sheet: the lifted operator z1*dx1*dy1
    # differentiates x1 and y1 at order 2, so 6 multipliers x1^a*y1^b with
    # a + b <= 2 certify each generator; the module is (x1^2*x2 - y1^2)^3
    text = (MANIFESTS / "level_set_positive_indicator.txt").read_text()
    os_ = parse_operator_manifest(text.replace(
        "1 ; 1 ; (0,0) ; (0) ; 1", "1 ; 1 ; (1,0) ; (1) ; 1")).strata[0]
    st = os_.stratum
    op = lift_operator(os_.entries, st.ring, 1, st.n, st.m, st.p)
    basis = algorithm_IV(st, op).basis
    f = P(basis.ring, "x1^2*x2 - y1^2")
    assert [g[0] for g in basis.gens] == [f ** 3]
    reductions = _counting(monkeypatch, "normal_form")
    assert check_on_stratum(st, op, basis)
    assert len(reductions) == 6
    with pytest.raises(DomainError, match="soundness certificate failed"):
        check_on_stratum(st, op, SubmoduleBasis(basis.ring, 1, [f]))


# -- the x-derivative rewrite at every order up to 3, and at 4, 6 and 8 --------

# every row (alpha;beta) of total order <= 3 on the 2-D sheets, then three
# rows of order 4, 6 and 8
ORDER_ROWS = [("%d,%d" % (a1, a2), "%d" % b)
              for a1, a2, b in sorted(product(range(4), repeat=3), key=sum)
              if a1 + a2 + b <= 3] + [("0,0", "4"), ("2,2", "2"), ("4,4", "0")]
REWRITE_GOLDEN = Path(__file__).parent / "golden" / "x_rewrite_ledger.txt"
REWRITE_KEYS = ("rewrite_D", "rewrite_pieces", "piece", "intersect_gens")


def _row_mclosure(alpha, beta):
    text = (MANIFESTS / "level_set_positive_indicator.txt").read_text()
    return main_mclosure(parse_operator_manifest(text.replace(
        "1 ; 1 ; (0,0) ; (0) ; 1", "1 ; 1 ; (%s) ; (%s) ; 1" % (alpha, beta))))


def _rewrite_ledger(alpha, beta, res):
    """The row's header, then its rewrite and intersection ledger lines."""
    return ["# row (%s;%s)" % (alpha, beta)] + [
        line for line in res.provenance
        if line.split(".", 1)[-1].split("=")[0] in REWRITE_KEYS]


@pytest.mark.parametrize("alpha, beta", ORDER_ROWS)
def test_order_three_rows_finish_within_budget(alpha, beta):
    # the shipped positive indicator with order k <= 3, 4, 6 or 8 on its 2-D
    # sheets: the module is (f^(k+1)), f = x2^2*x3 - x1^2, and the rewrite
    # ledger equals the row's block in tests/golden/x_rewrite_ledger.txt
    k = sum(int(e) for e in alpha.split(",")) + int(beta)
    res = within(30, lambda: _row_mclosure(alpha, beta))
    f = P(res.basis.ring, "x2^2*x3 - x1^2")
    assert [g[0] for g in res.basis.gens] == [f ** (k + 1)]
    ledger = _rewrite_ledger(alpha, beta, res)
    blocks = {}
    for line in REWRITE_GOLDEN.read_text().splitlines():
        head = line if line.startswith("# row") else head
        blocks.setdefault(head, []).append(line)
    assert blocks[ledger[0]] == ledger


def test_rewrite_of_x_order_five_five_meets_its_alarm():
    # z1*dx^(5,5) on the first 2-D sheet of the shipped positive indicator:
    # Delta^55 times it is the sum of X^u o L_u over the 36 pieces u <= (5,5).
    # One Horner expansion and one Leibniz table per term meet the alarm
    # with more than 2x to spare; composing every word letter by letter and
    # pushing coefficients by a recursion that calls itself twice per letter
    # missed it by more than 2x
    text = (MANIFESTS / "level_set_positive_indicator.txt").read_text()
    os_ = parse_operator_manifest(text.replace(
        "1 ; 1 ; (0,0) ; (0) ; 1", "1 ; 1 ; (5,5) ; (0) ; 1")).strata[0]
    st = os_.stratum
    op = lift_operator(os_.entries, st.ring, 1, st.n, st.m, st.p)
    frame = build_tangent_frame(st)
    d, pieces = within(3, lambda: eliminate_x_derivatives(op, frame))
    assert d == 55
    assert sorted(pieces) == sorted(product(range(6), range(6), [0], [0]))


# -- the cost curve: every row of order <= 4, and two high-order rows ----------

COST_SEED = 5
# (alpha, beta, alarm in seconds); (0,0;10) gets 1 s because raising every
# annihilator to the power 11 makes it take about 1.8 s
COST_ROWS = [("%d,%d" % (a1, a2), "%d" % b, 5)
             for a1, a2, b in sorted(product(range(5), repeat=3), key=sum)
             if a1 + a2 + b <= 4] + [("0,0", "10", 1), ("2,2", "2", 5)]


@pytest.mark.parametrize("alpha, beta, seconds", COST_ROWS)
def test_cost_curve_rows_give_the_power_of_f(alpha, beta, seconds):
    # the positive indicator of a seeded level set with order k on its 2-D
    # sheets: the module is (f^(k+1)), f = x2^2*x3 - x1^2
    k = sum(int(e) for e in alpha.split(",")) + int(beta)
    strata = _positive_strata(random.Random("mclosure:%d" % COST_SEED))
    sop = parse_operator_manifest(indicator_manifest(strata, (alpha, beta)))
    res = within(seconds, lambda: main_mclosure(sop))
    f = P(res.basis.ring, "x2^2*x3 - x1^2")
    assert module_equal(res.basis, ideal(res.basis.ring, [f ** (k + 1)]))


if __name__ == "__main__":
    # regenerate the golden file, only when a change of the rewrite's
    # output is intended:
    #   PYTHONPATH=src python tests/test_pipeline.py > tests/golden/x_rewrite_ledger.txt
    for row in ORDER_ROWS:
        print("\n".join(_rewrite_ledger(*row, _row_mclosure(*row))))
