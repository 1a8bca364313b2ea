"""Byte-for-byte pin of the exact reduction path.

Seeded small random inputs (degree <= 2, one to three generators) go
through solve_inhomogeneous, syzygy_module, intersect, saturate,
critical_l and eliminate.  The printed results, in the order the engine
returns them, must equal tests/golden/reduction_path.txt.  Which
particular solution `solve_inhomogeneous` returns depends on every
divisor and pair the engine picks, so any change of path shows here.

Regenerate only when a change of output is intended:

    PYTHONPATH=src python tests/test_reduction_golden.py > tests/golden/reduction_path.txt
"""

import random
from pathlib import Path

from diffmod.groebner import (SubmoduleBasis, critical_l, eliminate, intersect,
                              saturate, solve_inhomogeneous, syzygy_module)
from diffmod.poly import Polynomial, PolyVec, Ring

from conftest import random_nonzero_polynomial, random_polynomial

GOLDEN = Path(__file__).parent / "golden" / "reduction_path.txt"
RING = Ring.make(nx=2)


def _poly(rng):
    return random_polynomial(rng, RING, deg=2, nterms=3, height=5)


def _nonzero(rng):
    return random_nonzero_polynomial(rng, RING, deg=2, nterms=3, height=5)


def _vecs(rng, j, count):
    out = []
    while len(out) < count:
        v = PolyVec([_poly(rng) for _ in range(j)])
        if not v.is_zero():
            out.append(v)
    return out


def _basis_lines(label, gens):
    return ["%s %d" % (label, len(gens))] + ["  " + g.text() for g in gens]


def render():
    lines = []
    for seed in range(30):
        rng = random.Random(7000 + seed)
        j = rng.randint(1, 2)
        lines.append("# seed %d, j=%d" % (seed, j))

        cols = _vecs(rng, j, rng.randint(1, 3))
        if rng.random() < 0.6:
            p = [_poly(rng) for _ in cols]
            rhs = [sum((c[i] * q for c, q in zip(cols, p)), Polynomial.zero(RING))
                   for i in range(j)]
        else:
            rhs = [_poly(rng) for _ in range(j)]
        sol = solve_inhomogeneous(cols, rhs)
        lines.append("solve " + ("none" if sol is None else sol.text()))

        lines += _basis_lines("syz", list(syzygy_module(cols).gens))

        left = SubmoduleBasis(RING, j, _vecs(rng, j, rng.randint(1, 2)))
        right = SubmoduleBasis(RING, j, _vecs(rng, j, rng.randint(1, 2)))
        lines += _basis_lines("intersect", list(intersect(left, right).gens))

        f = _nonzero(rng)
        lines += _basis_lines("saturate", list(saturate(left, f).gens))

        b_cols = _vecs(rng, j, 1)
        delta = random_nonzero_polynomial(rng, RING, deg=1, nterms=2, height=5)
        if seed % 2:
            # col(Delta * A) makes the chain grow past M_0
            a_cols = [c.scale(delta) for c in cols]
        else:
            a_cols = cols
        l0, mod = critical_l(a_cols, b_cols, delta)
        lines += _basis_lines("critical_l l0=%d" % l0, list(mod.gens))

        drop = [rng.randrange(RING.nvars)]
        lines += _basis_lines("eliminate x%d" % (drop[0] + 1),
                              list(eliminate(right, drop).gens))
    return "\n".join(lines) + "\n"


def test_reduction_path_matches_golden_output():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    print(render(), end="")
