"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from diffmod.groebner import (SubmoduleBasis, buchberger, critical_l, ideal,
                              module_equal, normal_form, syzygy_module,
                              _Gen, _index, _nf, _spair)
from diffmod.operators import (LinearDiffOp, build_tangent_frame,
                               eliminate_x_derivatives, mclosure_poly_coeffs)
from diffmod.orders import packing
from diffmod.pipeline import (algorithm_I, algorithm_II, algorithm_IV,
                              check_on_stratum, main_mclosure)
from diffmod.poly import Polynomial, PolyVec, Ring, linear_change_of_vars, mat_inverse
from diffmod.quasimonic import QuasiMonic, delta_of, reduce_mod_powers
from diffmod.realroots import isolate_real_roots, refine_interval
from diffmod.vanishing import Stratum, complexify, vanishing_ideal

from conftest import random_columns, random_nonzero_polynomial, random_polynomial
from example1 import (AMBIENT, indicator_operator, negative_level_strata,
                      positive_level_strata)
from oracle import membership_by_linear_algebra
from test_realroots import scan_real_roots, _dense
from diffmod.realroots import _squarefree, _to_integer


def P(ring, s):
    return Polynomial.parse(ring, s)


def report(num, ok, detail):
    print("ACCEPTANCE %2d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_01_example_negative_level():
    start = time.monotonic()
    out = vanishing_ideal(negative_level_strata())
    want = ideal(AMBIENT, [P(AMBIENT, "x1"), P(AMBIENT, "x2")])
    ok = module_equal(out, want)
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 10,
           "I(E_-1) = (x, y), %.2fs (budget 10s)" % elapsed)


def test_criterion_02_example_positive_level():
    start = time.monotonic()
    out = vanishing_ideal(positive_level_strata())
    want = ideal(AMBIENT, [P(AMBIENT, "x1^2 - x3*x2^2")])
    ok = module_equal(out, want)
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 60,
           "I(E_1) = (x^2 - z y^2), %.2fs (budget 60s)" % elapsed)


def test_criterion_03_indicator_bridge():
    start = time.monotonic()
    pos_map = {i: i for i in range(3)}
    res_neg = main_mclosure(indicator_operator(negative_level_strata()))
    want_neg = ideal(AMBIENT, [P(AMBIENT, "x1"), P(AMBIENT, "x2")])
    lifted_neg = SubmoduleBasis(AMBIENT, 1,
                                [PolyVec([g[0].lift(AMBIENT, pos_map)])
                                 for g in res_neg.basis.gens])
    ok_neg = module_equal(lifted_neg, want_neg)

    res_pos = main_mclosure(indicator_operator(positive_level_strata()))
    want_pos = ideal(AMBIENT, [P(AMBIENT, "x1^2 - x3*x2^2")])
    lifted_pos = SubmoduleBasis(AMBIENT, 1,
                                [PolyVec([g[0].lift(AMBIENT, pos_map)])
                                 for g in res_pos.basis.gens])
    ok_pos = module_equal(lifted_pos, want_pos)
    elapsed = time.monotonic() - start
    report(3, ok_neg and ok_pos and elapsed < 120,
           "indicator operators reproduce both ideals, %.2fs (budget 120s)" % elapsed)


def test_criterion_04_groebner_soundness():
    rng = random.Random(20260808)
    ring = Ring.make(nx=3)
    spair_failures = 0
    checked_pairs = 0
    ideals = []
    for _ in range(200):
        gens = [random_nonzero_polynomial(rng, ring, deg=3, nterms=3, height=10,
                                          int_coeffs=True)
                for _ in range(rng.randint(1, 3))]
        basis = ideal(ring, gens)
        gb = basis.groebner()
        ideals.append((gens, gb))
        pk = packing(gb.order, gb.ring.nvars)
        items = [_Gen(pk.primitive(g)[0], pk) for g in gb.gens]
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                s, _ = _spair(items[i], items[j], pk, False)
                rem = _nf(s, _index(items), pk)[0]
                checked_pairs += 1
                if rem:
                    spair_failures += 1
    member_disagreements = 0
    for _ in range(50):
        gens, gb = ideals[rng.randrange(len(ideals))]
        if rng.random() < 0.5:
            f = sum((g * random_polynomial(rng, ring, deg=2, nterms=2, height=3)
                     for g in gens), Polynomial.zero(ring))
        else:
            f = random_polynomial(rng, ring, deg=3, nterms=4, height=10)
        if f.is_zero():
            continue
        engine = normal_form(f, gb).is_zero()
        brute = membership_by_linear_algebra(f, gens, degcap=8)
        if engine != brute:
            member_disagreements += 1
    ok = spair_failures == 0 and member_disagreements == 0
    report(4, ok, "%d S-pairs reduced, %d membership disagreements"
           % (checked_pairs, member_disagreements))


def test_criterion_05_division_certificates():
    rng = random.Random(55)
    ring = Ring.make(nx=2, ny=2)
    yidx = [ring.index("y1"), ring.index("y2")]
    failures = 0
    for _ in range(200):
        m = rng.randint(1, 2)
        k = rng.randint(1, 2)
        qs = []
        for mu in range(m):
            d = rng.randint(1, 3)
            lead = Polynomial.zero(ring)
            while lead.is_zero():
                cand = random_polynomial(rng, ring, deg=1, nterms=2, height=3)
                lead = Polynomial(ring, {mm: c for mm, c in cand.terms.items()
                                         if mm[yidx[0]] == 0 and mm[yidx[1]] == 0})
            tail = random_polynomial(rng, ring, deg=2, nterms=3, height=3)
            tail = Polynomial(ring, {mm: c for mm, c in tail.terms.items()
                                     if mm[yidx[mu]] < d and mm[yidx[1 - mu]] == 0})
            y = Polynomial.variable(ring, yidx[mu])
            qs.append(QuasiMonic(lead * y ** d + tail, yidx[mu]))
        p = random_polynomial(rng, ring, deg=4, nterms=5, height=5)
        try:
            cert = reduce_mod_powers(p, qs, k)
            delta = delta_of(qs, ring)
            cert.verify(p, qs, delta)
            lhs = delta ** cert.l * p
            rhs = cert.remainder
            for h, q in zip(cert.cofactors, qs):
                rhs = rhs + h * q.poly ** k
            if lhs != rhs:
                failures += 1
            for q in qs:
                if cert.remainder.degree_in(q.var) >= k * q.deg:
                    failures += 1
        except Exception:
            failures += 1
    report(5, failures == 0, "200 certificates re-expanded, %d failures" % failures)


def test_criterion_06_critical_l_contract():
    rng = random.Random(66)
    ring = Ring.make(nx=2)
    failures = 0
    for _ in range(50):
        rows = rng.randint(1, 2)
        ja = rng.randint(1, 3)
        kb = rng.randint(1, 2)
        a = random_columns(rng, ring, rows, ja, deg=2, nterms=2, height=3)
        b = random_columns(rng, ring, rows, kb, deg=2, nterms=2, height=3)
        delta = random_nonzero_polynomial(rng, ring, deg=2, nterms=2, height=3)
        l0, m_l0 = critical_l(a, b, delta)

        def module_for(l):
            syz = syzygy_module([v.scale(delta ** l) for v in b] + a)
            gens = [PolyVec(s.comps[:kb]) for s in syz.gens
                    if not PolyVec(s.comps[:kb]).is_zero()] or []
            return SubmoduleBasis(ring, kb, gens)

        if not module_equal(m_l0, module_for(l0 + 1)):
            failures += 1
        if not module_equal(m_l0, module_for(l0 + 3)):
            failures += 1
    report(6, failures == 0, "50 stabilization checks, %d failures" % failures)


def _random_stratum(rng):
    n = rng.randint(1, 2)
    m = rng.randint(1, 2)
    ring = Ring.make(nx=n, ny=m)
    xbase = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    anns = []
    witness = list(xbase)
    nonlinear_used = False
    for mu in range(m):
        yvar = n + mu
        y = Polynomial.variable(ring, yvar)
        kind = rng.choice(["monic-lin", "quasi-lin", "split-quad"])
        if kind == "split-quad" and nonlinear_used:
            kind = "monic-lin"
        if kind == "monic-lin":
            g = random_polynomial(rng, ring, deg=2, nterms=2, height=2)
            g = Polynomial(ring, {mm: c for mm, c in g.terms.items()
                                  if all(mm[n + i] == 0 for i in range(m))})
            anns.append(y - g)
            witness.append(g.evaluate(witness[:n] + [0] * m))
        elif kind == "quasi-lin":
            a = Polynomial.zero(ring)
            while a.is_zero() or a.evaluate(xbase + [0] * m) == 0:
                cand = random_polynomial(rng, ring, deg=1, nterms=2, height=2)
                a = Polynomial(ring, {mm: c for mm, c in cand.terms.items()
                                      if all(mm[n + i] == 0 for i in range(m))})
            bpol = random_polynomial(rng, ring, deg=1, nterms=2, height=2)
            bpol = Polynomial(ring, {mm: c for mm, c in bpol.terms.items()
                                     if all(mm[n + i] == 0 for i in range(m))})
            anns.append(a * y - bpol)
            aval = a.evaluate(xbase + [0] * m)
            witness.append(bpol.evaluate(xbase + [0] * m) / aval)
        else:
            nonlinear_used = True
            g = random_polynomial(rng, ring, deg=1, nterms=2, height=2)
            g = Polynomial(ring, {mm: c for mm, c in g.terms.items()
                                  if all(mm[n + i] == 0 for i in range(m))})
            h = g + rng.randint(1, 3)
            anns.append((y - g) * (y - h))
            witness.append(g.evaluate(xbase + [0] * m))
    return Stratum(n=n, m=m, p=0, ring=ring, anns_y=anns, witness=witness)


def test_criterion_07_frames_and_rewrite():
    rng = random.Random(77)
    failures = 0
    strata_done = 0
    while strata_done < 20:
        try:
            st = _random_stratum(rng)
            van = complexify(st)
        except Exception:
            continue
        strata_done += 1
        frame = build_tangent_frame(st, van)
        for x_op in frame.fields:
            for qm in frame.annihilators:
                if not x_op.apply_poly(qm.poly).is_zero():
                    failures += 1
        ring = st.ring
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
            if sum(alpha) > 2:
                continue
            coeff = random_polynomial(rng, ring, deg=1, nterms=2, height=2)
            if not coeff.is_zero():
                terms[(alpha, 0)] = coeff
        if not terms:
            continue
        op = LinearDiffOp(ring, 1, terms)
        d, fam = eliminate_x_derivatives(op, frame)
        for _ in range(50):
            v = PolyVec([random_polynomial(rng, ring, deg=2, nterms=2, height=2)])
            lhs = op.apply(v) * frame.delta ** d
            rhs = Polynomial.zero(ring)
            for alpha, la in fam.items():
                accum = la.apply(v)
                # X^alpha applies the highest-index field innermost
                for j, e in reversed(list(enumerate(alpha))):
                    for _ in range(e):
                        accum = frame.fields[frame.x_indices.index(j)].apply_poly(accum)
                rhs = rhs + accum
            if lhs != rhs:
                failures += 1
    report(7, failures == 0,
           "20 strata: tangency and rewrite identities, %d failures" % failures)


def test_criterion_08_pipeline_soundness_sampling():
    failures = 0
    checked = 0

    ring1 = Ring.make(nx=1, ny=1)
    parab = Stratum(n=1, m=1, p=0, ring=ring1, anns_y=[P(ring1, "y1 - x1^2")],
                    witness=[1, 1])
    sqrt_st = Stratum(n=1, m=1, p=0, ring=ring1, anns_y=[P(ring1, "y1^2 - x1")],
                      witness=[1, 1])
    ring2 = Ring.make(nx=1, ny=1, nz=1)
    parab_z = Stratum(n=1, m=1, p=1, ring=ring2, anns_y=[P(ring2, "y1 - x1^2")],
                      anns_z=[P(ring2, "z1 - x1")], witness=[1, 1, 1])

    cases = [
        (parab, LinearDiffOp(ring1, 1, {((0, 1), 0): 1}), algorithm_I),
        (parab, LinearDiffOp(ring1, 1, {((0, 0), 0): 1}), algorithm_I),
        (sqrt_st, LinearDiffOp(ring1, 1, {((0, 1), 0): P(ring1, "y1")}), algorithm_I),
        (parab_z, LinearDiffOp(ring2, 1, {((0, 0, 1), 0): 1}), algorithm_II),
        (parab_z, LinearDiffOp(ring2, 1, {((0, 1, 0), 0): 1,
                                          ((0, 0, 0), 0): P(ring2, "x1")}), algorithm_II),
        (sqrt_st, LinearDiffOp(ring1, 1, {((1, 0), 0): 1}), algorithm_IV),
        (sqrt_st, LinearDiffOp(ring1, 1, {((1, 1), 0): P(ring1, "x1"),
                                          ((0, 1), 0): 1}), algorithm_IV),
    ]
    for st, op, algo in cases:
        res = algo(st, op)
        try:
            check_on_stratum(st, op, res.basis)
            checked += len(res.basis.gens)
        except Exception:
            failures += 1

    # main algorithm: the exact per-stratum check runs inside; the final ambient
    # generators are additionally checked against each stratum
    sop = indicator_operator(negative_level_strata())
    res = main_mclosure(sop, check=True)
    for os_ in sop.strata:
        st = os_.stratum
        tinv = mat_inverse(os_.t_ambient) if os_.t_ambient is not None else None
        from diffmod.operators import lift_operator
        op = lift_operator(os_.entries, st.ring, 1, st.n, st.m, st.p)
        gens = []
        for g in res.basis.gens:
            q = g[0]
            if tinv is not None:
                q = linear_change_of_vars(q, tinv)
            gens.append(PolyVec([q.lift(st.ring, {i: i for i in range(3)})]))
        try:
            check_on_stratum(st, op, SubmoduleBasis(st.ring, 1, gens))
            checked += len(gens)
        except Exception:
            failures += 1
    report(8, failures == 0,
           "%d generators sampled against their strata, %d failures" % (checked, failures))


def test_criterion_09_cross_path_agreement():
    rng = random.Random(99)
    failures = 0

    def flat(n):
        ring = Ring.make(nx=n)
        return Stratum(n=n, m=0, p=0, ring=ring, witness=[0] * n), ring

    st, ring = flat(1)
    L = LinearDiffOp(ring, 2, {((0,), 0): 1, ((0,), 1): -1})
    want = SubmoduleBasis(ring, 2, [PolyVec([Polynomial.one(ring), Polynomial.one(ring)])])
    a = algorithm_IV(st, L).basis
    b = mclosure_poly_coeffs(L)
    if not (module_equal(a, b) and module_equal(a, want)):
        failures += 1

    st, ring = flat(1)
    L = LinearDiffOp(ring, 1, {((1,), 0): 1})
    a = algorithm_IV(st, L).basis
    b = mclosure_poly_coeffs(L)
    if a.gens or b.gens:
        failures += 1

    done = 2
    while done < 10:
        n = rng.randint(1, 2)
        ncomp = rng.randint(1, 2)
        st, ring = flat(n)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = tuple(rng.randint(0, 1) for _ in range(n))
            if sum(alpha) > 2:
                continue
            coeff = random_polynomial(rng, ring, deg=1, nterms=2, height=3)
            if not coeff.is_zero():
                terms[(alpha, rng.randrange(ncomp))] = coeff
        if not terms:
            continue
        L = LinearDiffOp(ring, ncomp, terms)
        a = algorithm_IV(st, L).basis
        b = mclosure_poly_coeffs(L)
        if not module_equal(a, b):
            failures += 1
        done += 1
    report(9, failures == 0, "10 operators cross-checked, %d failures" % failures)


def test_criterion_10_real_root_oracle():
    start = time.monotonic()
    rng = random.Random(1010)
    ring = Ring.make(nx=1)
    disagreements = 0
    for _ in range(1000):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-10, 10)) for _ in range(deg)] + \
                 [Fraction(rng.choice([i for i in range(-10, 11) if i]))]
        p = Polynomial(ring, {(i,): c for i, c in enumerate(coeffs) if c})
        if p.degree() < 1:
            continue
        ivs = isolate_real_roots(p)
        sq = _to_integer(_squarefree(_dense(p)))
        scanned = scan_real_roots(sq)
        if len(ivs) != len(scanned):
            disagreements += 1
            continue
        for iv, (kind, lo, hi) in zip(ivs, scanned):
            if kind == "exact" and not (iv.exact and iv.lower == lo):
                disagreements += 1
            elif kind == "bracket" and not (iv.lower <= hi and lo <= iv.upper):
                disagreements += 1

    p = P(ring, "x1^2 - 2")
    iv = [i for i in isolate_real_roots(p) if i.lower > 0][0]
    narrow = refine_interval(p, iv, Fraction(1, 10 ** 6))
    refine_ok = (narrow.width() < Fraction(1, 10 ** 6)
                 and narrow.lower ** 2 < 2 < narrow.upper ** 2)
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and refine_ok and elapsed < 30
    report(10, ok, "1000 isolations vs scan oracle, %d disagreements, %.2fs (budget 30s)"
           % (disagreements, elapsed))
