"""Monomials, monomial orders, and module orders.

Monomials are plain exponent tuples; a module monomial is a pair
(component, exponent tuple).  Orders expose a `key` function so that
``key(a) < key(b)`` iff a < b in the order; all comparisons in the
engine go through these keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, ge, sub

from .errors import StructuralError


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    """a / b as a monomial, or None when b does not divide a."""
    if all(map(ge, a, b)):
        return tuple(map(sub, a, b))
    return None


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_deg(a):
    return sum(a)


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


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
