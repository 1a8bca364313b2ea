import random
import signal
from fractions import Fraction

import pytest

from diffmod.poly import Polynomial, PolyVec, Ring


def random_fraction(rng, height=10):
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Fraction(num, den)


def random_polynomial(rng, ring, deg=3, nterms=4, height=10, int_coeffs=False):
    terms = {}
    for _ in range(nterms):
        mono = [0] * ring.nvars
        budget = rng.randint(0, deg)
        for _ in range(budget):
            mono[rng.randrange(ring.nvars)] += 1
        c = rng.randint(-height, height) if int_coeffs else random_fraction(rng, height)
        if c:
            terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + c
    return Polynomial(ring, {m: c for m, c in terms.items() if c})


def random_nonzero_polynomial(rng, ring, **kw):
    while True:
        p = random_polynomial(rng, ring, **kw)
        if not p.is_zero():
            return p


def random_vec(rng, ring, j, **kw):
    return PolyVec([random_polynomial(rng, ring, **kw) for _ in range(j)])


def random_columns(rng, ring, rows, ncols, **kw):
    """A rows x ncols matrix of random polynomials, drawn row by row, as
    its column vectors."""
    matrix = [[random_polynomial(rng, ring, **kw) for _ in range(ncols)]
              for _ in range(rows)]
    return [PolyVec(col) for col in zip(*matrix)]


def within(seconds, fn):
    """fn() under a real-time alarm of `seconds`, so that a cost cliff
    fails with TimeoutError instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("took more than %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(20260808)
