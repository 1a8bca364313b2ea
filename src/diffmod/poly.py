"""Sparse multivariate polynomials with exact rational coefficients.

A `Ring` is an ordered, named variable set partitioned into x/y/z
blocks.  A `Polynomial` stores {exponent tuple: Fraction} with no zero
coefficients, so equality is representation equality and every
operation is exact.  `PolyVec` is a fixed-length vector of polynomials
over a shared ring.

Canonical text form: terms joined by ``+``/``-``, rational
coefficients as ``num/den``, powers as ``name^k``, e.g.
``x1^2 - 1/2*z1*y1^2``.  `parse` and `text` round-trip exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .errors import DomainError, StructuralError
from .orders import grevlex_order

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


class Ring:
    """Ordered variable names with parallel block labels ('x', 'y' or 'z')."""

    __slots__ = ("names", "blocks", "_index")

    def __init__(self, names, blocks):
        names = tuple(names)
        blocks = tuple(blocks)
        if len(names) != len(blocks):
            raise StructuralError("names/blocks length mismatch")
        if len(set(names)) != len(names):
            raise StructuralError("duplicate variable names")
        for n in names:
            if not _NAME_RE.match(n):
                raise StructuralError("bad variable name %r" % n)
        for b in blocks:
            if b not in ("x", "y", "z"):
                raise StructuralError("bad block label %r" % b)
        self.names = names
        self.blocks = blocks
        self._index = {n: i for i, n in enumerate(names)}

    @classmethod
    def make(cls, nx=0, ny=0, nz=0):
        names = ["x%d" % (i + 1) for i in range(nx)]
        names += ["y%d" % (i + 1) for i in range(ny)]
        names += ["z%d" % (i + 1) for i in range(nz)]
        return cls(names, "x" * nx + "y" * ny + "z" * nz)

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError("unknown variable %r" % name) from None

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.names, self.blocks))

    def __repr__(self):
        return "Ring(%s)" % ", ".join(self.names)


def _frac(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise StructuralError("coefficient must be rational, got %r" % (c,))


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        n = ring.nvars
        for mono, c in terms.items():
            c = _frac(c)
            if c == 0:
                continue
            if len(mono) != n or any(e < 0 for e in mono):
                raise StructuralError("bad exponent tuple %r" % (mono,))
            clean[mono] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def _of(cls, ring, terms):
        """The polynomial with `terms` as they are, unchecked: nonzero
        Fractions on exponent tuples of length nvars, none negative."""
        p = cls.__new__(cls)
        p.ring, p.terms = ring, terms
        return p

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {(0,) * ring.nvars: _frac(c)})

    @classmethod
    def variable(cls, ring, name_or_index):
        i = name_or_index if isinstance(name_or_index, int) else ring.index(name_or_index)
        mono = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return cls(ring, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, ring, mono, c=1):
        return cls(ring, {tuple(mono): _frac(c)})

    # -- basic structure ---------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def degree_in(self, i):
        return max((m[i] for m in self.terms), default=-1)

    def degree_in_vars(self, idxs):
        idxs = tuple(idxs)
        return max((sum(m[i] for i in idxs) for m in self.terms), default=-1)

    def vars_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def leading(self, order=None):
        """(monomial, coefficient) of the leading term; raises on zero."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        order = order or grevlex_order()
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order=None):
        order = order or grevlex_order()
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise StructuralError("mixed rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m, Fraction(0)) + c
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Polynomial._of(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return Polynomial.zero(self.ring)
            return Polynomial._of(self.ring, {m: v * c for m, v in self.terms.items()})
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = out.get(m, Fraction(0)) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial._of(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise DomainError("exponent must be a non-negative integer")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Polynomial.one(self.ring) if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        return isinstance(other, Polynomial) and self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    # -- calculus and evaluation ---------------------------------------

    def diff(self, i, times=1):
        p = self
        for _ in range(times):
            terms = {}
            for m, c in p.terms.items():
                if m[i] == 0:
                    continue
                m2 = m[:i] + (m[i] - 1,) + m[i + 1:]
                terms[m2] = terms.get(m2, Fraction(0)) + c * m[i]
            p = Polynomial(self.ring, terms)
        return p

    def diff_multi(self, alpha):
        if len(alpha) != self.ring.nvars:
            raise StructuralError("multi-index length mismatch")
        p = self
        for i, k in enumerate(alpha):
            if k:
                p = p.diff(i, k)
        return p

    def evaluate(self, point):
        if len(point) != self.ring.nvars:
            raise StructuralError("point length mismatch")
        point = [_frac(c) for c in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= x ** e
            total += v
        return total

    def partial_eval(self, assignment):
        """Substitute rational values for the variables in `assignment` (index -> value)."""
        out = {}
        for m, c in self.terms.items():
            v = c
            m2 = list(m)
            for i, val in assignment.items():
                e = m[i]
                if e:
                    v *= _frac(val) ** e
                m2[i] = 0
            if v:
                key = tuple(m2)
                w = out.get(key, Fraction(0)) + v
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        return Polynomial(self.ring, out)

    def substitute(self, images, ring=None):
        """Map variable i to polynomial images[i]; images over the target ring."""
        ring = ring or (images[0].ring if images else self.ring)
        if len(images) != self.ring.nvars:
            raise StructuralError("need one image per variable")
        out = {}   # the sum, added into in place as __add__ would
        powers = [[Polynomial.one(ring)] for _ in images]
        for m, c in self.terms.items():
            term = Polynomial.constant(ring, c)
            for i, e in enumerate(m):
                if e:
                    while len(powers[i]) <= e:
                        powers[i].append(powers[i][-1] * images[i])
                    term = term * powers[i][e]
            for t, v in term.terms.items():
                v = out.get(t, Fraction(0)) + v
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
        return Polynomial._of(ring, out)

    def lift(self, ring, mapping=None):
        """Reinterpret in a larger ring; mapping sends old index -> new index."""
        if mapping is None:
            mapping = {i: ring.index(n) for i, n in enumerate(self.ring.names)}
        out = {}
        for m, c in self.terms.items():
            m2 = [0] * ring.nvars
            for i, e in enumerate(m):
                if e:
                    m2[mapping[i]] = e
            out[tuple(m2)] = c
        return Polynomial(ring, out)

    # -- text form ------------------------------------------------------

    def text(self, order=None):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms(order):
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            num, den = c.numerator, c.denominator
            stem = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
            if factors and stem == "1":
                body = "*".join(factors)
            elif factors:
                body = stem + "*" + "*".join(factors)
            else:
                body = stem
            if not parts:
                parts.append(body if num > 0 else "-" + body)
            else:
                parts.append((" + " if num > 0 else " - ") + body)
        return "".join(parts)

    @classmethod
    def parse(cls, ring, s):
        """The polynomial a text names: a signed sum of terms, each a
        product of integers, ``num/den`` constants and ``name^e`` powers."""
        s = s.strip()
        if not s:
            raise StructuralError("empty polynomial text")
        pos = 0
        tokens = []
        while pos < len(s):
            m = _TOKEN_RE.match(s, pos)
            if not m:
                raise StructuralError("bad character in polynomial at %r" % s[pos:pos + 10])
            tokens.append(m.group(1))
            pos = m.end()
        tokens.append(None)

        # one factor per pass; a term goes into `terms` at the + or - (or end) after it
        terms = {}
        t = tokens[0]
        i = 1 if t in ("+", "-") else 0
        coeff, exps = Fraction(-1 if t == "-" else 1), [0] * ring.nvars
        while True:
            t = tokens[i]
            i += 1
            if t is None:
                raise StructuralError("unexpected end of polynomial")
            if t.isdigit():
                if tokens[i] == "/":
                    d = tokens[i + 1]
                    i += 2
                    if d is None or not d.isdigit() or not int(d):
                        raise StructuralError("bad rational constant")
                    coeff *= Fraction(int(t), int(d))
                else:
                    coeff *= int(t)
            elif _NAME_RE.match(t):
                k = ring.index(t)
                if tokens[i] == "^":
                    e = tokens[i + 1]
                    i += 2
                    if e is None or not e.isdigit():
                        raise StructuralError("bad exponent")
                    exps[k] += int(e)
                else:
                    exps[k] += 1
            else:
                raise StructuralError("unexpected token %r" % t)
            t = tokens[i]
            i += 1
            if t == "*":
                continue
            mono = tuple(exps)
            v = terms.get(mono, 0) + coeff
            if v:
                terms[mono] = v
            else:
                terms.pop(mono, None)
            if t is None:
                return Polynomial(ring, terms)
            if t not in ("+", "-"):
                raise StructuralError("expected + or - at %r" % t)
            coeff, exps = Fraction(-1 if t == "-" else 1), [0] * ring.nvars

    def __repr__(self):
        return "Polynomial(%s)" % self.text()


_TOKEN_RE = re.compile(r"\s*(\^|\*|\+|-|/|[A-Za-z_][A-Za-z_0-9]*|\d+)")


class PolyVec:
    """Fixed-length vector of polynomials over one ring."""

    __slots__ = ("ring", "comps")

    def __init__(self, comps):
        comps = tuple(comps)
        if not comps:
            raise StructuralError("empty vector")
        ring = comps[0].ring
        for p in comps:
            if p.ring != ring:
                raise StructuralError("mixed rings in vector")
        self.ring = ring
        self.comps = comps

    @classmethod
    def unit(cls, ring, j, k):
        return cls([Polynomial.one(ring) if i == k else Polynomial.zero(ring) for i in range(j)])

    def __len__(self):
        return len(self.comps)

    def __getitem__(self, i):
        return self.comps[i]

    def is_zero(self):
        return all(p.is_zero() for p in self.comps)

    def __add__(self, other):
        return PolyVec([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return PolyVec([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return PolyVec([-a for a in self.comps])

    def scale(self, f):
        return PolyVec([p * f for p in self.comps])

    def __eq__(self, other):
        return isinstance(other, PolyVec) and self.comps == other.comps

    __hash__ = None

    def text(self, order=None):
        return " ; ".join(p.text(order) for p in self.comps)

    def __repr__(self):
        return "PolyVec(%s)" % self.text()


# -- exact rational linear algebra helpers ------------------------------


def mat_det(rows):
    """Determinant of a square rational matrix, by fraction Gaussian elimination."""
    n = len(rows)
    a = [[_frac(x) for x in r] for r in rows]
    if any(len(r) != n for r in a):
        raise StructuralError("matrix is not square")
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def mat_inverse(rows):
    n = len(rows)
    a = [[_frac(x) for x in r] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise DomainError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def linear_change_of_vars(obj, T):
    """Substitute var_i -> sum_j T[i][j] * var_j in a Polynomial, a PolyVec
    or a nonempty list of PolyVecs over one ring (giving a list).

    T must be square and invertible over the rationals; composing with
    the substitution by the inverse matrix restores the input exactly.
    T is checked, and the variable images built, once per call.
    """
    ring = (obj[0] if isinstance(obj, list) else obj).ring
    n = ring.nvars
    if len(T) != n or any(len(r) != n for r in T):
        raise StructuralError("matrix size does not match ring")
    if mat_det(T) == 0:
        raise DomainError("singular change of variables")
    images = [sum((Polynomial.variable(ring, j) * _frac(c) for j, c in enumerate(row)),
                  Polynomial.zero(ring)) for row in T]
    if isinstance(obj, list):
        return [PolyVec([p.substitute(images, ring) for p in v.comps]) for v in obj]
    if isinstance(obj, PolyVec):
        return PolyVec([p.substitute(images, ring) for p in obj.comps])
    return obj.substitute(images, ring)


def binom(n, k):
    return comb(n, k)
