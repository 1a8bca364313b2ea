"""Seeded inputs for every workload, as text.

Everything the program under test receives is generated here from the
run's seed: the same seed gives byte-identical inputs.  The generators
only build strings; parsing them is part of each workload's set-up.
"""

import random
from fractions import Fraction

# -- the level-set example E_a = {x^2 - z*y^2 = 0, z <= a} -------------------

# Derivative orders (alpha over x' ; beta over x'') placed on the four 2-D
# strata of the positive indicator; k is the total order, and the solution
# module is (f^(k+1)) with f = x2^2*x3 - x1^2.
MCLOSURE_ORDERS = [("0,0", "0", 0), ("1,0", "0", 1), ("0,0", "2", 2), ("1,0", "1", 2)]

_SQUARE_ROOTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
                 Fraction(3, 4), Fraction(2, 5), Fraction(3, 5)]


def _positive_strata(rng):
    """The twelve strata of E_1, each with a seeded witness on its branch.

    Each entry is (n, m, U, annihilators, witness, T); witnesses keep the
    sign pattern that selects the stratum's branch.
    """
    t_surface = "0,1,0 ; 0,0,1 ; 1,0,0"
    t_axis = "0,0,1 ; 1,0,0 ; 0,1,0"
    t_line = "0,1,0 ; 1,0,0 ; 0,0,1"
    out = []
    # 2-D sheets y1 = +-x1*sqrt(x2) over 0 < x2 < 1, one per branch
    for sx, sy in [(1, 1), (1, -1), (-1, -1), (-1, 1)]:
        p = rng.randint(1, 3)
        q = rng.choice(_SQUARE_ROOTS)
        u = ("x1 > 0" if sx > 0 else "-x1 > 0") + " && x2 > 0 && -x2 + 1 > 0"
        wit = [sx * p, q * q, sy * p * q]
        out.append((2, 1, u, ["-x1^2*x2 + y1^2"], wit, t_surface))
    # the z-axis below the level, and the y-axis at z = 0 on both sides
    out.append((1, 2, "-x1 + 1 > 0", ["y1", "y2"], [1 - rng.randint(1, 4), 0, 0], t_axis))
    for s in (1, -1):
        out.append((1, 2, "x1 > 0" if s > 0 else "-x1 > 0", ["y1", "y2"],
                    [s * rng.randint(1, 4), 0, 0], t_line))
    # the two lines x = +-y at z = 1, split at the origin
    for s in (1, -1):
        for sign, ann in ((1, "-x1 + y1"), (-1, "x1 + y1")):
            t = s * rng.randint(1, 4)
            out.append((1, 2, "x1 > 0" if s > 0 else "-x1 > 0", [ann, "y2 - 1"],
                        [t, sign * t, 1], t_line))
    out.append((0, 3, "true", ["y1", "y2", "y3 - 1"], [0, 0, 1], None))
    return out


def _negative_strata(rng):
    """The two strata of E_a for a = -c < 0: the z-axis below a and the point (0, 0, a)."""
    c = rng.randint(1, 9)
    return [(1, 2, "-x1 - %d > 0" % c, ["y1", "y2"], [-c - rng.randint(1, 4), 0, 0],
             "0,0,1 ; 1,0,0 ; 0,1,0"),
            (0, 3, "true", ["y1", "y2", "y3 + %d" % c], [0, 0, -c], None)]


def _fmt(values):
    return ", ".join(str(v) for v in values)


def strata_manifest(strata):
    """A `vanish` manifest for the given strata."""
    lines = []
    for n, m, u, anns, wit, t in strata:
        lines += ["[stratum]", "n = %d" % n, "m = %d" % m, "p = 0", "U = %s" % u]
        lines += ["anny %d = %s" % (i + 1, a) for i, a in enumerate(anns)]
        lines.append("witness = %s" % _fmt(wit))
        if t:
            lines.append("T = %s" % t)
        lines.append("")
    return "\n".join(lines)


def indicator_manifest(strata, row_2d=("0,0", "0")):
    """An `mclosure` manifest for the indicator operator on the strata;
    the 2-D strata carry the coefficient row 1 ; 1 ; (alpha) ; (beta) ; 1."""
    lines = ["[operator]", "n = 3", "j = 1", "k = 1", ""]
    for n, m, u, anns, wit, t in strata:
        lines += ["[stratum]", "n = %d" % n, "m = %d" % m, "p = 1", "U = %s" % u]
        lines += ["anny %d = %s" % (i + 1, a) for i, a in enumerate(anns)]
        lines += ["annz 1 = z1 - 1", "witness = %s" % _fmt(wit + [1])]
        if t:
            lines.append("T = %s" % t)
        alpha, beta = row_2d if n == 2 else (",".join("0" * n), ",".join("0" * m))
        lines += ["[coeffs]", "1 ; 1 ; (%s) ; (%s) ; 1" % (alpha, beta), ""]
    return "\n".join(lines)


def mclosure_jobs(seed):
    """[(name, manifest text, expected-output file)] for mclosure_level_set."""
    rng = random.Random("mclosure:%d" % seed)
    pos = _positive_strata(rng)
    jobs = [("pos_%s_%s" % (a.replace(",", ""), b), indicator_manifest(pos, (a, b)),
             "power%d.txt" % (k + 1)) for a, b, k in MCLOSURE_ORDERS]
    jobs.append(("neg", indicator_manifest(_negative_strata(rng)), "negative.txt"))
    return jobs


# -- ideals ---------------------------------------------------------------------

def _names(n):
    return ["x%d" % (i + 1) for i in range(n)]


def cyclic(n):
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and x1*...*xn - 1."""
    xs = _names(n)
    polys = []
    for d in range(1, n):
        polys.append(" + ".join("*".join(xs[(i + k) % n] for k in range(d)) for i in range(n)))
    polys.append("*".join(xs) + " - 1")
    return xs, polys


def katsura(n):
    """Katsura-n over u0..un (named x1..x(n+1)), with u_-m = u_m and u_m = 0
    for |m| > n: sum_l u_l*u_(m-l) = u_m for m < n, and sum_l u_l = 1."""
    xs = _names(n + 1)

    def u(m):
        m = abs(m)
        return xs[m] if m <= n else None

    polys = []
    for m in range(n):
        terms = {}
        for l in range(-n, n + 1):
            a, b = u(l), u(m - l)
            if a and b:
                key = "*".join(sorted([a, b], key=xs.index))
                terms[key] = terms.get(key, 0) + 1
        body = " + ".join("%d*%s" % (c, t) if c != 1 else t for t, c in terms.items())
        polys.append("%s - %s" % (body, u(m)))
    polys.append(" + ".join([xs[0]] + ["2*%s" % x for x in xs[1:]]) + " - 1")
    return xs, polys


def _random_poly(rng, nvars, nterms, maxdeg, height):
    """A nonzero sparse polynomial {exponent tuple: integer coefficient}."""
    terms = {}
    for _ in range(nterms):
        mono = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            mono[rng.randrange(nvars)] += 1
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + (rng.randint(-height, height) or 1)
    terms = {m: c for m, c in terms.items() if c}
    return terms or _random_poly(rng, nvars, nterms, maxdeg, height)


def _mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_text(xs, terms):
    """Expanded text in the manifest syntax (the parser has no parentheses)."""
    parts = []
    for mono, c in sorted(terms.items(), reverse=True):
        factors = ["%s^%d" % (x, e) if e > 1 else x for x, e in zip(xs, mono) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


RANDOM_IDEALS = 200
QUERIES_PER_IDEAL = 20
# Ideals per job: a batch averages over the spread of single ideals, so the
# job latencies of a pass form one narrow group.
IDEALS_PER_JOB = 20


def random_ideals(seed):
    """[(generators, queries, is_member flags)] over Q[x1, x2, x3].

    Half the queries are sum g_i*h_i with small random h_i, members by
    construction; the other half are random polynomials.
    """
    rng = random.Random("ideals:%d" % seed)
    xs = _names(3)
    out = []
    for _ in range(RANDOM_IDEALS):
        gens = [_random_poly(rng, 3, 3, 3, 5) for _ in range(3)]
        queries, members = [], []
        for q in range(QUERIES_PER_IDEAL):
            if q % 2 == 0:
                f = {}
                for g in gens:
                    f = _add(f, _mul(_random_poly(rng, 3, 2, 1, 3), g))
                members.append(True)
            else:
                f = _random_poly(rng, 3, 4, 4, 9)
                members.append(False)
            queries.append(poly_text(xs, f))
        out.append(([poly_text(xs, g) for g in gens], queries, members))
    return xs, out


# -- command-line manifests ----------------------------------------------------

def cli_jobs(seed):
    """[(name, argv after the subcommand's manifest, manifest text)] for cli_cold."""
    rng = random.Random("cli:%d" % seed)
    jobs = [
        ("vanish_neg", ["vanish"], strata_manifest(_negative_strata(rng))),
        ("vanish_pos", ["vanish"], strata_manifest(_positive_strata(rng))),
        ("mclosure_neg", ["mclosure"], indicator_manifest(_negative_strata(rng))),
    ]
    xs = _names(2)
    gens = "\n".join(poly_text(xs, _random_poly(rng, 2, 3, 3, 5)) for _ in range(2))
    jobs.append(("gb", ["gb"], "[ring]\nx = x1, x2\norder = grevlex\n[polys]\n%s\n" % gens))
    a = rng.randint(2, 20)
    jobs.append(("roots", ["roots", "--width", "1/1000000"],
                 "[ring]\nx = x1\n[poly]\nx1^3 - %d*x1 + 10000000000000\n" % a))
    lo, hi = rng.randint(1, 5), rng.randint(6, 12)
    jobs.append(("witness", ["witness"],
                 "[ring]\nx = x1, x2\n[desc]\nx1 - %d > 0 && -x1^2 - x2^2 + %d > 0\n"
                 "[avoid]\nx1 - x2\n" % (lo, hi * hi)))
    xy = ["x1", "y1"]
    target = poly_text(xy, _random_poly(rng, 2, 4, 5, 9))
    divisor = {(1, 2): rng.randint(1, 5), (0, 2): rng.randint(1, 5), (1, 1): 1,
               (0, 0): rng.randint(1, 5)}
    jobs.append(("qdiv", ["qdiv"],
                 "[ring]\nx = x1\ny = y1\n[target]\n%s\n[divisors]\n%s ; y1\n"
                 "[params]\npower = %d\n" % (target, poly_text(xy, divisor), rng.randint(1, 2))))
    return jobs


def job_names(workload, seed):
    """The jobs of one pass, in the order they run."""
    if workload == "mclosure_level_set":
        return [name for name, _, _ in mclosure_jobs(seed)]
    if workload == "groebner_ideals":
        return ["gb_cyclic5", "gb_katsura5"] + [
            "random%03d" % b for b in range(0, RANDOM_IDEALS, IDEALS_PER_JOB)]
    return [name for name, _, _ in cli_jobs(seed)]
