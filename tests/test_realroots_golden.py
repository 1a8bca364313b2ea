"""Byte-for-byte pin of real-root isolation and refinement.

About 300 seeded univariate polynomials go through isolate_real_roots,
without a width and with the width 1/10^6.  The families are rational linear
factors with 3- to 6-digit numerators and denominators (alone, in
close pairs and times irreducible quadratics), roots at 0, squared
factors, irreducible quadratics and cubics, and small random dense
polynomials with rational coefficients.  Every endpoint printed must
equal tests/golden/real_roots.txt, so a change in how roots are found
shows here even when the roots themselves stay right.

Regenerate only when a change of output is intended:

    PYTHONPATH=src python tests/test_realroots_golden.py > tests/golden/real_roots.txt
"""

import random
from fractions import Fraction
from pathlib import Path

from diffmod.poly import Polynomial, Ring
from diffmod.realroots import _prepare, _refine, isolate_real_roots

GOLDEN = Path(__file__).parent / "golden" / "real_roots.txt"
R1 = Ring(("x",), "x")
WIDTH = Fraction(1, 10 ** 6)


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _digits(rng, lo, hi):
    d = rng.randint(lo, hi)
    return rng.randint(10 ** (d - 1), 10 ** d - 1)


def _rational_linear(rng, lo=3, hi=6):
    """den*x - num for a random root num/den with lo..hi digits each."""
    num = _digits(rng, lo, hi) * rng.choice((1, -1))
    return [Fraction(-num), Fraction(_digits(rng, lo, hi))]


def _irreducible_quadratic(rng):
    if rng.random() < 0.5:
        return [Fraction(-rng.choice((2, 3, 5, 6, 7, 10, 11))), Fraction(0), Fraction(1)]
    b, c = rng.randint(-6, 6), rng.randint(-6, 6)
    while b * b - 4 * c in (0, 1, 4, 9, 16, 25, 36, 49, 64, 81, 100):
        c += 1
    return [Fraction(c), Fraction(b), Fraction(1)]


def _cubic(rng):
    return [Fraction(rng.choice([i for i in range(-9, 10) if i])),
            Fraction(rng.randint(-9, 9)), Fraction(0), Fraction(rng.choice((1, 2, 3)))]


def _small_linear(rng):
    return [Fraction(-rng.randint(-5, 5)), Fraction(rng.randint(1, 3))]


def _dense(rng):
    deg = rng.randint(1, 7)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    return coeffs + [Fraction(rng.choice([i for i in range(-9, 10) if i]), rng.randint(1, 4))]


def polynomials():
    rng = random.Random(5151)
    out = []
    for i in range(300):
        kind = i % 6
        if kind == 0:       # one large rational root times an irrational pair
            c = _mul(_rational_linear(rng), _irreducible_quadratic(rng))
        elif kind == 1:     # a root at 0
            c = [Fraction(0)] * rng.randint(1, 2) + [Fraction(1)]
            c = _mul(c, _rational_linear(rng, 3, 4) if rng.random() < 0.5 else _cubic(rng))
        elif kind == 2:     # squared factors
            f = _small_linear(rng) if rng.random() < 0.5 else _irreducible_quadratic(rng)
            c = _mul(_mul(f, f), _rational_linear(rng, 3, 4))
        elif kind == 3:     # irreducible quadratics and cubics
            c = _irreducible_quadratic(rng) if rng.random() < 0.4 else _cubic(rng)
        elif kind == 4:     # two close rational roots, k/den and (k+1)/den
            num, den = _digits(rng, 3, 4), _digits(rng, 3, 4)
            c = _mul([Fraction(-num), Fraction(den)], [Fraction(-num - 1), Fraction(den)])
            c = _mul(c, _small_linear(rng))
        else:
            c = _dense(rng)
        scale = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 1, 5)))
        out.append(Polynomial(R1, {(e,): v * scale for e, v in enumerate(c) if v}))
    return out


def render():
    lines = []
    for k, p in enumerate(polynomials()):
        if p.degree() < 1:
            continue
        ivs = isolate_real_roots(p)
        q2 = _prepare(p)[1]
        refined = [iv if iv.exact else _refine(q2, iv, WIDTH) for iv in ivs]
        # the CLI's one-pass path must refine exactly as interval by interval
        assert isolate_real_roots(p, WIDTH) == refined
        lines.append("# %d %s" % (k, p.text()))
        lines.append("iso " + " ".join(str(iv) for iv in ivs))
        lines.append("ref " + " ".join(str(iv) for iv in refined))
    return "\n".join(lines) + "\n"


def test_real_roots_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    import sys
    sys.stdout.write(render())
