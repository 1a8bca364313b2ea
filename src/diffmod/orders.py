"""Monomials, monomial orders, and module orders.

Monomials are plain exponent tuples; a module monomial is a pair
(component, exponent tuple).  Orders expose a `key` function so that
``key(a) < key(b)`` iff a < b in the order; the Groebner core compares
module monomials as the ints of a `Packing`, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, ge, mul, neg, sub

from .errors import DomainError, StructuralError

FIELD = 32                  # bits per packed exponent, the top one a guard
LIMIT = 1 << (FIELD - 1)    # packed exponents stay below this
FMASK = (1 << FIELD) - 1
OVER_LIMIT = "exponent at or over the limit 2^31 = %d" % LIMIT
MEMO = 1 << 10              # entries a Packing memo holds before it starts over


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    """a / b as a monomial, or None when b does not divide a."""
    if all(map(ge, a, b)):
        return tuple(map(sub, a, b))
    return None


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def mv_primitive(f):
    """(p, s): p the primitive integer mvec with p = s * f, s > 0 rational."""
    if not f:
        return {}, Fraction(1)
    num, den = 0, 1
    for c in f.values():
        num = gcd(num, c.numerator)
        if c.denominator != 1:
            den = lcm(den, c.denominator)
    if den == 1:
        return {k: c.numerator // num for k, c in f.items()}, Fraction(1, num)
    return ({k: c.numerator * (den // c.denominator) // num for k, c in f.items()},
            Fraction(den, num))


def _grevlex_key(mono):
    return (sum(mono), tuple(map(neg, reversed(mono))))


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on exponent tuples.

    kinds:
      lex      -- lexicographic, first variable heaviest
      grevlex  -- graded reverse lexicographic
      block    -- eliminate the variables in `elim` (grevlex within each block)
    """

    kind: str = "grevlex"
    elim: frozenset = field(default_factory=frozenset)

    def key(self, mono):
        if self.kind == "lex":
            return mono
        if self.kind == "grevlex":
            return _grevlex_key(mono)
        if self.kind == "block":
            first = tuple(e for i, e in enumerate(mono) if i in self.elim)
            rest = tuple(e for i, e in enumerate(mono) if i not in self.elim)
            return (_grevlex_key(first), _grevlex_key(rest))
        raise StructuralError("unknown order kind %r" % self.kind)

    def cmp(self, a, b):
        if len(a) != len(b):
            raise StructuralError("monomial length mismatch: %d vs %d" % (len(a), len(b)))
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


def lex_order():
    return MonomialOrder("lex")


def grevlex_order():
    return MonomialOrder("grevlex")


def block_order(split):
    """Elimination order whose first block is variables 0..split-1."""
    return MonomialOrder("block", frozenset(range(split)))


def elim_order(indices):
    """Elimination order for an arbitrary variable subset."""
    return MonomialOrder("block", frozenset(indices))


def mono_cmp(order, a, b):
    """-1 / 0 / +1 comparison of two monomials under `order`."""
    return order.cmp(a, b)


@dataclass(frozen=True)
class ModuleOrder:
    """Order on module monomials (component, monomial).

    scheme 'top' compares monomials first (term over position).
    `comp_elim` marks a leading component block that outweighs everything
    else; it is how syzygy and projection computations eliminate
    components.  Lower component index wins ties, so e_0 > e_1 > ... at
    equal monomials.
    """

    mono_order: MonomialOrder
    scheme: str = "top"
    comp_elim: int = 0

    def key(self, comp, mono):
        blockflag = 1 if comp < self.comp_elim else 0
        if self.scheme == "top":
            return (blockflag, self.mono_order.key(mono), -comp)
        raise StructuralError("unknown module order scheme %r" % self.scheme)


def top_order(mono_order=None):
    return ModuleOrder(mono_order or grevlex_order(), "top")


class Packing:
    """Terms (comp, mono) of a ModuleOrder over nvars variables as ints whose
    int order is the term order, for exponents below B = LIMIT.  From the
    top bit: the flag comp < comp_elim; the order's linear form L(mono)
    (lex: sum e_i B^(n-1-i); grevlex: deg B^n - sum e_i B^(i-1), i from 1;
    block: the first block's grevlex form above the rest's); 2^FIELD - 1 -
    comp; each e_i in the FIELD bits at FIELD*i, whose top bit, the guard,
    is clear.  So a term times x^q is T + shift(q), and in one component b
    divides a iff (T_a - T_b) & guard == 0, as a_i < b_i borrows into a
    guard.  A sum of two terms overflows no field, so an exponent that
    reaches B there shows in its guard.  Build one through `packing`, which
    keeps one per (order, nvars), so that `shift` and `unpack` memoise
    across calls.  Each memo stores a value only once its limit check
    passed, and empties when it reaches MEMO entries.
    """

    def __init__(self, order, nvars):
        mo = order.mono_order
        if order.scheme != "top" or mo.kind not in ("lex", "grevlex", "block"):
            raise StructuralError("cannot pack the terms of %r" % (order,))
        if mo.kind == "lex":
            w = [LIMIT ** (nvars - 1 - i) for i in range(nvars)]
        else:  # grevlex is block with no first block
            w = [0] * nvars
            elim = mo.elim if mo.kind == "block" else ()
            rest = [i for i in range(nvars) if i not in elim]
            for vs in (rest, [i for i in range(nvars) if i in elim]):
                above = (LIMIT - 1) * sum(w) + 1
                for j, v in enumerate(vs):
                    w[v] = (LIMIT ** len(vs) - LIMIT ** j) * above
        self.nvars, self.comp_elim = nvars, order.comp_elim
        self.fields = range(0, FIELD * nvars, FIELD)
        self.cpos, lpos = FIELD * nvars, FIELD * (nvars + 1)
        self.flag = 1 << (lpos + (2 * (LIMIT - 1) * sum(w)).bit_length())
        self.units = [(wi << lpos) + (1 << f) for wi, f in zip(w, self.fields)]
        self.guard = sum(LIMIT << f for f in self.fields)
        self._shifts, self._terms = {}, {}

    def shift(self, mono):
        """x^mono packed: what multiplying a term by it adds.  A monomial
        shorter than nvars has exponent 0 in the variables it lacks."""
        s = self._shifts.get(mono)
        if s is None:
            if max(mono, default=0) >= LIMIT:
                raise DomainError(OVER_LIMIT)
            s = sum(map(mul, mono, self.units))
            _remember(self._shifts, mono, s)
        return s

    def pack(self, comp, mono):
        return (comp < self.comp_elim) * self.flag + (FMASK - comp << self.cpos) + self.shift(mono)

    def packed(self, mv):
        """The mvec {(comp, mono): c} on packed terms."""
        return {self.pack(i, m): c for (i, m), c in mv.items()}

    def primitive(self, vec):
        """`mv_primitive` of the vector of polynomials `vec`, whose
        component i is component i of the packed terms."""
        return mv_primitive({self.pack(i, m): c for i, poly in enumerate(vec.comps)
                             for m, c in poly.terms.items()})

    def comp(self, t):
        return FMASK - (t >> self.cpos & FMASK)

    def unpack(self, t):
        """(comp, mono) of a packed term, whose guards must be clear."""
        r = self._terms.get(t)
        if r is None:
            if t & self.guard:
                raise DomainError(OVER_LIMIT)
            r = self.comp(t), tuple(t >> f & FMASK for f in self.fields)
            _remember(self._terms, t, r)
        return r


def _remember(memo, key, value):
    """memo[key] = value, emptying the memo first when it is full."""
    if len(memo) >= MEMO:
        memo.clear()
    memo[key] = value


@lru_cache(maxsize=16)
def packing(order, nvars):
    """The one Packing of (order, nvars), among the 16 last asked for."""
    return Packing(order, nvars)
