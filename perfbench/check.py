"""Correctness gate, run outside the timed region.

Every job's output is checked against something independent of the
program: hand-written expected files for the level-set modules,
`sympy.groebner` and `sympy.reduced` for bases and normal forms, and
exact evaluation for root intervals, witness points and division
certificates.  Each check returns None when the output is right, or a
one-line reason.
"""

import os
from fractions import Fraction

import sympy
from sympy import QQ
from sympy.polys.groebnertools import groebner as sympy_groebner
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

import inputs

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def _expected(name):
    with open(os.path.join(EXPECTED, name), encoding="ascii") as fh:
        return fh.read().strip()


def _same_text(out, want):
    return None if out.strip() == want else "got %r, want %r" % (out[:200], want[:200])


def _expr(text, syms):
    return sympy.sympify(text.replace("^", "**"), locals={str(s): s for s in syms})


def _terms(text, nvars):
    """{exponents: Fraction} of a polynomial in the expanded manifest syntax."""
    out = {}
    text = text.replace(" - ", " + -").replace(" ", "")
    for term in text.split("+"):
        sign = -1 if term.startswith("-") else 1
        coeff, mono = Fraction(sign), [0] * nvars
        for factor in term.lstrip("-").split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                mono[int(name[1:]) - 1] += int(exp or 1)
        if coeff:
            out[tuple(mono)] = out.get(tuple(mono), 0) + coeff
    return out


class _Ideal:
    """An ideal of Q[x1..xn] in sympy's sparse polynomial ring, with its
    reduced grevlex basis from sympy's own Buchberger."""

    def __init__(self, nvars, polys):
        self.ring = ring(",".join("x%d" % (i + 1) for i in range(nvars)), QQ, grevlex)[0]
        self.nvars = nvars
        self.basis = sympy_groebner([f for f in map(self.poly, polys) if f], self.ring)

    def poly(self, text):
        if text.strip() == "0":
            return self.ring.zero
        return self.ring.from_dict({m: QQ(c.numerator, c.denominator)
                                    for m, c in _terms(text, self.nvars).items()})

    def key(self, polys):
        return sorted(sorted(p.monic().terms()) for p in polys if p)


def _check_basis(out, nvars, polys, ideal=None):
    ideal = ideal or _Ideal(nvars, polys)
    got = [] if out.strip() == "0" else [ideal.poly(line) for line in out.splitlines()]
    if ideal.key(got) != ideal.key(ideal.basis):
        return "basis differs from sympy's groebner"
    return None


def _check_batch(out, nvars, ideals):
    """One block per ideal, separated by lines `==`."""
    blocks = out.split("\n==\n")
    if len(blocks) != len(ideals):
        return "%d results for %d ideals" % (len(blocks), len(ideals))
    for block, (gens, queries, members) in zip(blocks, ideals):
        why = _check_random_ideal(block, nvars, gens, queries, members)
        if why:
            return why
    return None


def _check_random_ideal(out, nvars, polys, queries, members):
    """The basis, a line `--`, then one normal form per query."""
    basis, _, reads = out.partition("\n--\n")
    ideal = _Ideal(nvars, polys)
    return _check_basis(basis, nvars, polys, ideal) or \
        _check_normal_forms(reads, ideal, queries, members)


def _check_normal_forms(out, ideal, queries, members):
    lines = out.splitlines()
    if len(lines) != len(queries):
        return "%d normal forms for %d queries" % (len(lines), len(queries))
    for line, query, member in zip(lines, queries, members):
        got = ideal.poly(line)
        if member and got:
            return "member %s has nonzero normal form" % query
        if got != ideal.poly(query).rem(ideal.basis):
            return "normal form of %s differs from sympy's reduction" % query
    return None


def _guarded(check, *args):
    """A check that raises on malformed output reports it as a failure."""
    try:
        return check(*args)
    except (ValueError, IndexError, TypeError, ZeroDivisionError, sympy.SympifyError) as exc:
        return "malformed output: %s: %s" % (type(exc).__name__, exc)


def check_mclosure(seed, outputs):
    want = {name: _expected(fname) for name, _, fname in inputs.mclosure_jobs(seed)}
    return {name: _same_text(out, want[name]) for name, out in outputs.items()}


def check_groebner(seed, outputs):
    res = {}
    for name, (xs, polys) in (("gb_cyclic5", inputs.cyclic(5)), ("gb_katsura5", inputs.katsura(5))):
        res[name] = _guarded(_check_basis, outputs[name], len(xs), polys)
    xs, ideals = inputs.random_ideals(seed)
    for b in range(0, len(ideals), inputs.IDEALS_PER_JOB):
        name = "random%03d" % b
        res[name] = _guarded(_check_batch, outputs[name], len(xs),
                             ideals[b:b + inputs.IDEALS_PER_JOB])
    return res


def _section(text, name):
    lines = text.splitlines()
    start = lines.index("[%s]" % name) + 1
    body = []
    for line in lines[start:]:
        if line.startswith("["):
            break
        body.append(line)
    return body


def _check_roots(out, manifest):
    x1 = sympy.Symbol("x1")
    poly = sympy.Poly(_expr(_section(manifest, "poly")[0], [x1]), x1)
    lines = out.splitlines()
    if len(lines) != poly.count_roots():
        return "%d intervals for %d real roots" % (len(lines), poly.count_roots())
    prev = None
    for line in lines:
        if line.startswith("root "):
            r = sympy.Rational(line.split()[1])
            if poly.eval(r) != 0:
                return "%s is not a root" % r
            lo = hi = r
        else:
            lo, hi = (sympy.Rational(v) for v in line[len("interval ["):-1].split(", "))
            if not lo < hi or poly.count_roots(lo, hi) != 1 or poly.eval(lo) == 0 \
                    or poly.eval(hi) == 0:
                return "[%s, %s] does not isolate one root" % (lo, hi)
            if hi - lo >= sympy.Rational(1, 10 ** 6):
                return "[%s, %s] is wider than the requested width" % (lo, hi)
        if prev is not None and lo <= prev:
            return "intervals overlap or are unsorted"
        prev = hi
    return None


def _holds(value, rel):
    return {">": value > 0, "<": value < 0, "=": value == 0}[rel]


def _check_witness(out, manifest):
    syms = sympy.symbols("x1 x2")
    point = [Fraction(v) for v in out.split(", ")]
    subs = dict(zip(syms, (sympy.Rational(v.numerator, v.denominator) for v in point)))
    for line in _section(manifest, "desc"):
        for cond in line.split("&&"):
            rel = next(r for r in (">", "<", "=") if r in cond)
            lhs = _expr(cond.split(rel)[0], syms).subs(subs)
            if not _holds(lhs, rel):
                return "witness %s violates %s" % (out, cond.strip())
    for avoid in _section(manifest, "avoid"):
        if _expr(avoid, syms).subs(subs) == 0:
            return "witness %s lies on avoided %s" % (out, avoid)
    return None


def _check_qdiv(out, manifest):
    syms = x1, y1 = sympy.symbols("x1 y1")
    target = _expr(_section(manifest, "target")[0], syms)
    divisor = _expr(_section(manifest, "divisors")[0].split(";")[0], syms)
    power = int(_section(manifest, "params")[0].split("=")[1])
    lines = out.splitlines()
    l = int(lines[0].split("=")[1])
    cofactor = _expr(lines[1].split("=", 1)[1], syms)
    remainder = _expr(lines[2].split("=", 1)[1], syms)
    lead = sympy.Poly(divisor, y1).LC()
    if sympy.expand(lead ** l * target - cofactor * divisor ** power - remainder) != 0:
        return "division certificate identity fails"
    if sympy.degree(remainder, y1) >= power * sympy.degree(divisor, y1):
        return "remainder degree bound violated"
    return None


def check_cli(seed, outputs):
    res = {}
    for name, _, manifest in inputs.cli_jobs(seed):
        out = outputs[name]
        if name in ("vanish_neg", "mclosure_neg"):
            res[name] = _same_text(out, _expected("negative.txt"))
        elif name == "vanish_pos":
            res[name] = _same_text(out, _expected("power1.txt"))
        elif name == "gb":
            res[name] = _guarded(_check_basis, out, 2, _section(manifest, "polys"))
        else:
            check = {"roots": _check_roots, "witness": _check_witness, "qdiv": _check_qdiv}[name]
            res[name] = _guarded(check, out, manifest)
    return res


CHECKS = {"mclosure_level_set": check_mclosure, "groebner_ideals": check_groebner,
          "cli_cold": check_cli}
