"""Spec-level invariants that do not fit a single module's test file."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

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


def _python(code):
    """Run code in a fresh interpreter that imports this diffmod; its exit
    status and stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(diffmod.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    return done.returncode, done.stdout


def test_core_imports_leave_sympy_out():
    # sympy costs most of the start-up time and memory of a fresh process;
    # only `vanishing.factor_rational` imports it, when it is called
    code = ("import sys, diffmod, diffmod.groebner, diffmod.cli, diffmod.pipeline, "
            "diffmod.manifest, diffmod.vanishing; sys.exit('sympy' in sys.modules)")
    assert _python(code)[0] == 0


MANIFESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "manifests")


def test_shipped_manifests_run_without_sympy():
    # every annihilator they hold has degree <= 2, a constant lead and a
    # non-square discriminant, so the exact rule proves it irreducible
    paths = sorted(os.path.join(MANIFESTS, n) for n in os.listdir(MANIFESTS)
                   if n.endswith(".txt"))
    runs = [[cmd, p] + flags for p in paths for cmd in ("vanish", "mclosure")
            for flags in ([], ["--log"])]
    runs += [["mclosure", p, "--check", "--log"] for p in paths if "indicator" in p]
    code = ("import contextlib, io, sys\n"
            "from diffmod.cli import run\n"
            "codes = []\n"
            "for argv in %r:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        codes.append(run(argv))\n"
            "print(codes)\n"
            "sys.exit('sympy' in sys.modules)\n" % runs)
    status, out = _python(code)
    assert status == 0, "a shipped manifest loaded sympy"
    # vanish reads strata manifests and mclosure operator manifests; the
    # crossed pairs are parse errors
    codes = ast.literal_eval(out)
    assert len(paths) == 4 and len(codes) == len(runs)
    assert codes == [0 if ("vanish" in os.path.basename(r[1])) == (r[0] == "vanish") else 2
                     for r in runs]


def _vanish_loads_sympy(tmp_path, ann, witness):
    """(whether `vanish` on one annihilator imported sympy, its stdout)."""
    path = tmp_path / "stratum.txt"
    path.write_text("[stratum]\nn = 1\nm = 1\np = 0\nanny 1 = %s\nwitness = %s\n"
                    % (ann, witness))
    code = ("import sys\nfrom diffmod.cli import run\n"
            "assert run(['vanish', %r]) == 0\n"
            "sys.exit(10 + ('sympy' in sys.modules))\n" % str(path))
    status, out = _python(code)
    assert status in (10, 11), out
    return status == 11, out


@pytest.mark.parametrize("ann, witness, basis", [
    ("y1^3 - x1^2*y1", "1, 1", "x1 - x2"),
    ("x1*y1^2 - x1", "1, 1", "x2 - 1"),
    ("y1^2 - x1^2", "2, -2", "x1 + x2"),
], ids=["cubic", "lead-splits", "square-discriminant"])
def test_annihilators_the_rule_cannot_decide_load_sympy(tmp_path, ann, witness, basis):
    loaded, out = _vanish_loads_sympy(tmp_path, ann, witness)
    assert loaded, "the annihilator was not factored"
    assert out == basis + "\n"


@pytest.mark.parametrize("ann, witness, basis", [
    ("x1*y1^2 - y1 - x1^3 + x1^2", "1, 1", "x1^3 - x1*x2^2 - x1^2 + x2"),
    ("x1*y1^2 - 1", "1, 1", "x1*x2^2 - 1"),
], ids=["lead-irreducible", "constant-term"])
def test_a_nonzero_constant_coefficient_decides_without_sympy(tmp_path, ann, witness, basis):
    # the lead x1 is not constant, but b = -1 or c = -1 is, so p is
    # primitive over Q[x1] and Gauss's lemma with the discriminant decides
    loaded, out = _vanish_loads_sympy(tmp_path, ann, witness)
    assert not loaded, "sympy was loaded"
    assert out == basis + "\n"


PKG = os.path.dirname(os.path.abspath(diffmod.__file__))
MODULES = sorted(name for name in os.listdir(PKG) if name.endswith(".py"))


def _module_tree(name):
    """The parsed source of the package module `name`, such as 'poly.py'."""
    with open(os.path.join(PKG, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_no_module_imports_random():
    # identical input and flags give byte-identical output, so no code path
    # may draw from a seeded generator
    for name in MODULES:
        for node in ast.walk(_module_tree(name)):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert "random" not in roots, name


def test_pipeline_builds_its_systems_in_one_place():
    # every stage system reaches critical_l_columns through _solve_system,
    # so no second bucketing or column path can drift from it
    tree = _module_tree("pipeline.py")
    defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    callers = {f.name for f in defs for node in ast.walk(f)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "critical_l_columns"}
    assert len(callers) == 1, callers
    assert not {f.name for f in defs} & {"_bucket", "_sparse_columns"}


def test_linear_systems_reach_one_solver():
    # a matrix is a list of column vectors everywhere; syzygies, saturation
    # and the critical exponent eliminate row components only inside
    # critical_l_columns, and no dense system type or converter is left
    callers, names = set(), set()
    for name in MODULES:
        for node in ast.walk(_module_tree(name)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "_eliminate_tag"
                        and any(k.arg == "comp_elim" for k in call.keywords)):
                    callers.add(node.name)
    assert callers == {"critical_l_columns"}, callers
    assert not names & {"LinearSystemOverRing", "solution_module", "_columns", "_sparse"}


def test_ambient_maps_go_through_one_pull_back():
    # outside poly.py only vanishing.pull_back applies a coordinate map T,
    # and no second wrapper re-checks the annihilators a Stratum checked
    callers, classes = set(), set()
    for name in MODULES:
        if name == "poly.py":
            continue
        tree = _module_tree(name)
        classes |= {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None))
                 == "linear_change_of_vars"}
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef) and calls & set(ast.walk(f)):
                callers.add((name, f.name))
                calls -= set(ast.walk(f))
        callers |= {(name, None) for _ in calls}
    assert callers == {("vanishing.py", "pull_back")}, callers
    assert "TriangularSystem" not in classes


def test_strata_meet_through_one_helper():
    # main_mclosure and vanishing_ideal pull a stratum's contribution back
    # and intersect it only through vanishing.meet, which holds the rule
    # of one pull-back and one meet per distinct (key, T) pair.  The only
    # other pull_back is the certificate's, of the returned basis through
    # T^-1, in main_mclosure's loop over its checks
    defs = {node.name: node for name in ("pipeline.py", "vanishing.py")
            for node in ast.walk(_module_tree(name)) if isinstance(node, ast.FunctionDef)}

    def called(tree):
        return [getattr(node.func, "id", getattr(node.func, "attr", None))
                for node in ast.walk(tree) if isinstance(node, ast.Call)]

    assert {"pull_back", "intersect"} <= set(called(defs["meet"]))
    for name in ("main_mclosure", "vanishing_ideal"):
        calls = called(defs[name])
        assert calls.count("meet") == 1 and "intersect" not in calls, name
        assert calls.count("pull_back") == (name == "main_mclosure"), name
    certify = [node for node in defs["main_mclosure"].body
               if isinstance(node, ast.For) and "checks" in ast.unparse(node.iter)]
    assert len(certify) == 1 and "pull_back" in called(certify[0])


def test_x_rewrite_keys_by_multi_index():
    # the rewrite expands (Delta d_x)^a by X-counts, one item per k <= a,
    # not by 2^|a| choices, and X_j is frame.fields[j]: product runs only in
    # _sub_multis, and no position map over frame.x_indices is left
    tree = _module_tree("operators.py")
    defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    allowed = {node for f in defs if f.name == "_sub_multis" for node in ast.walk(f)}
    stray = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "product" and node not in allowed]
    assert not stray, stray
    maps = {f.name for f in defs for node in ast.walk(f)
            if isinstance(node, ast.DictComp)
            and any(isinstance(n, ast.Attribute) and n.attr == "x_indices"
                    for g in node.generators for n in ast.walk(g.iter))}
    assert not maps, maps
    assert "_split_alpha" not in {f.name for f in defs}


def test_x_rewrite_by_two_closed_forms():
    # one Horner expansion materializes every sum of words X^alpha o op and
    # one Leibniz table pushes each coefficient through a term's words: no
    # word is composed letter by letter beside it, no push recurses per
    # letter, and the frame fields reach compose only through _expand
    tree = _module_tree("operators.py")
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not set(defs) & {"_compose", "_push_coeff"}
    recursive = {name for name, f in defs.items() for node in ast.walk(f)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name}
    assert recursive == {"_rewrite", "_expand"}, recursive
    composers = {name for name, f in defs.items() for node in ast.walk(f)
                 if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "compose"
                 and "fields" in {getattr(n, "attr", getattr(n, "id", None))
                                  for n in ast.walk(node.func.value)}}
    assert composers == {"_expand"}, composers
    # frame.fields is an argument of _expand or, subscripted, applies X_j to
    # a coefficient of the Leibniz table
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_expand":
            allowed.add(node.args[0])
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "apply_poly"
                and isinstance(node.func.value, ast.Subscript)):
            allowed.add(node.func.value.value)
    uses = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr == "fields" and getattr(node.value, "id", None) == "frame"
            and node not in allowed]
    assert not uses, uses


def test_groebner_reduces_through_one_normal_form():
    # the pairs leave a Groebner basis, so one inter-reduction pass gives
    # the reduced basis; exact division is a normal form, not a second
    # leading-term loop
    tree = _module_tree("groebner.py")
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    whiles = [node for node in ast.walk(defs["_buchberger_core"]) if isinstance(node, ast.While)]
    assert len(whiles) == 1 and ast.unparse(whiles[0].test) == "heap", whiles
    div = defs["poly_exact_div"]
    assert not [node for node in ast.walk(div) if isinstance(node, (ast.For, ast.While))]
    assert "_nf" in {node.func.id for node in ast.walk(div)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    leading = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "leading"]
    assert not leading, leading


def test_groebner_core_compares_packed_terms():
    # the core orders terms as the ints of a Packing: no key cache, no max,
    # min or sort keyed by an order, and reduction shifts by int addition
    tree = _module_tree("groebner.py")
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"_Keys", "_keys"} & set(defs), sorted(defs)
    # a key is a lambda or an attrgetter that names no order or key cache
    keyed = [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("max", "min", "sort", "sorted")
             for kw in node.keywords if kw.arg == "key"]
    bad = [ast.unparse(k) for k in keyed if not (isinstance(k, ast.Lambda) or (
        isinstance(k, ast.Call) and getattr(k.func, "id", None) == "attrgetter"))
        or "order" in ast.unparse(k) or "key" in ast.unparse(k)]
    assert not bad, bad
    for name in ("_nf", "_mv_axpy"):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(defs[name]) if isinstance(node, ast.Call)}
        assert not called & {"mono_mul", "mono_div"}, (name, called)


def test_semialgebraic_sets_are_unions_of_clauses():
    # a description is a tuple of clauses of SignConditions, not a Boolean
    # tree, and the relation table lives in SignCondition.holds_for alone
    tree = _module_tree("realroots.py")
    classes = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert not set(classes) & {"Desc", "Atom", "And", "Or", "TrueDesc"}, sorted(classes)
    methods = {node.name for node in ast.walk(classes["SemialgebraicDescription"])
               if isinstance(node, ast.FunctionDef)}
    assert "conditions" not in methods
    tables = [(f.name, node.lineno) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for node in ast.walk(f) if isinstance(node, ast.Dict)
              and {getattr(k, "value", None) for k in node.keys} == {">", "<", "="}]
    assert [name for name, _ in tables] == ["holds_for"], tables


def test_annihilator_powers_come_from_one_rule():
    # stage I's box and final system and stage II's z-box, D2 floor and
    # cofactor columns raise the annihilators through _annihilator_powers,
    # and no flat ord + 1 power is left beside it
    tree = _module_tree("pipeline.py")
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def callers(attr):
        return {name for name, f in defs.items() for node in ast.walk(f)
                if isinstance(node, ast.Call)
                and attr in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}

    assert callers("_annihilator_powers") == {"graph_solution_module", "_zfree_solution_module"}
    assert callers("order") == {"_annihilator_powers", "_multipliers"}
    rule = set(ast.walk(defs["_annihilator_powers"]))
    powers = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.BinOp)
              and isinstance(node.op, ast.Pow) and node not in rule]
    assert not powers, powers
    assert not {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} & {"m_ord", "power"}


def test_polynomial_text_is_read_by_one_term_loop():
    # Polynomial.parse adds each term straight into one dict: no helper
    # parser, no closures and no Polynomial built per factor or per term
    tree = _module_tree("poly.py")
    assert "_parse_poly" not in {node.name for node in ast.walk(tree)
                                 if isinstance(node, ast.FunctionDef)}
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Polynomial")
    parse = next(node for node in cls.body
                 if isinstance(node, ast.FunctionDef) and node.name == "parse")
    nested = [node.name for node in ast.walk(parse)
              if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not parse]
    assert not nested, nested
    built = [node for node in ast.walk(parse) if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[0] in ("Polynomial", "cls")]
    returns = [node.value for node in ast.walk(parse) if isinstance(node, ast.Return)]
    assert built == returns and ast.unparse(built[0]) == "Polynomial(ring, terms)", \
        [ast.unparse(node) for node in built]


def test_groebner_core_has_one_packed_entry():
    # every Packing comes from the cached constructor, one per (order, nvars),
    # and a vector enters the core through Packing.primitive, not through a
    # tuple-keyed mvec packed afterwards
    for name in MODULES:
        tree = _module_tree(name)
        owners = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        built = [(name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Packing"
                 and not (name == "orders.py" and owners.get(id(node)) == "packing")]
        assert not built, built
    composed = [node.lineno for node in ast.walk(_module_tree("groebner.py"))
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "packed"
                and any(isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "vec_to_mvec"
                        for arg in node.args)]
    assert not composed, composed
