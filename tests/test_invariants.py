"""Spec-level invariants that do not fit a single module's test file."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction

import diffmod

from diffmod.groebner import ideal, intersect, module_equal, normal_form
from diffmod.operators import LinearDiffOp, lift_operator
from diffmod.pipeline import algorithm_IV, main_mclosure
from diffmod.poly import Polynomial, PolyVec, Ring
from diffmod.vanishing import Stratum

from conftest import random_nonzero_polynomial, random_polynomial
from example1 import (AMBIENT, indicator_operator, negative_level_strata,
                      positive_level_strata)


def P(ring, s):
    return Polynomial.parse(ring, s)


def test_intersection_contains_generator_products():
    rng = random.Random(121)
    ring = Ring.make(nx=2)
    for _ in range(15):
        g1 = [random_nonzero_polynomial(rng, ring, deg=2, nterms=2, height=3)
              for _ in range(rng.randint(1, 2))]
        g2 = [random_nonzero_polynomial(rng, ring, deg=2, nterms=2, height=3)
              for _ in range(rng.randint(1, 2))]
        m1, m2 = ideal(ring, g1), ideal(ring, g2)
        inter = intersect(m1, m2)
        gb1, gb2 = m1.groebner(), m2.groebner()
        ib = inter.groebner()
        for g in inter.gens:
            assert normal_form(g, gb1).is_zero()
            assert normal_form(g, gb2).is_zero()
        for a in g1:
            for b in g2:
                assert normal_form(PolyVec([a * b]), ib).is_zero()


def test_lift_then_substitute_recovers_application():
    # one coefficient H(x) = x^2 + 1: substituting z1 := H into the lifted
    # operator recovers H * d_x on z-independent vectors
    ring = Ring.make(nx=1, ny=0, nz=1)
    lifted = lift_operator([(1, 0, (1,), (), 1)], ring, 1, 1, 0, 1)
    h = P(ring, "x1^2 + 1")
    rng = random.Random(7)
    for _ in range(20):
        f = random_polynomial(rng, ring, deg=3)
        f = Polynomial(ring, {m: c for m, c in f.terms.items() if m[1] == 0})
        lifted_val = lifted.apply(PolyVec([f]))
        subbed = lifted_val.substitute([P(ring, "x1"), h], ring)
        direct = h * f.diff(0)
        assert subbed == direct


def test_adding_strata_never_enlarges_the_module():
    neg = negative_level_strata()
    sop_one = indicator_operator(neg[:1])
    sop_two = indicator_operator(neg)
    m_one = main_mclosure(sop_one).basis
    m_two = main_mclosure(sop_two).basis
    gb_one = m_one.groebner()
    for g in m_two.gens:
        assert normal_form(g, gb_one).is_zero()


def test_provenance_logs_degree_data():
    res = main_mclosure(indicator_operator(negative_level_strata()))
    text = "\n".join(res.provenance)
    assert "D1_box" in text and "D3" in text and "stage1_l" in text
    assert "rewrite_D" in text


def test_core_imports_leave_sympy_out():
    # sympy costs most of the start-up time and memory of a fresh process;
    # only the vanishing layer factors with it
    src = os.path.dirname(os.path.dirname(os.path.abspath(diffmod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, diffmod, diffmod.groebner; "
            "sys.exit('sympy' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_no_module_imports_random():
    # identical input and flags give byte-identical output, so no code path
    # may draw from a seeded generator
    pkg = os.path.dirname(os.path.abspath(diffmod.__file__))
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert "random" not in roots, name
