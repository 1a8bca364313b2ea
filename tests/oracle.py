"""Independent oracles used by the test suite.

The brute-force oracles do not call into the Groebner engine: membership
and relation checks are exact sparse linear algebra over the rationals
on a degree-bounded coefficient space, so they provide a second route to
the same answers.  The polynomial-coefficient recursion is a second
route to an operator's module on all of space, one that needs no
stratum, tangent frame or critical exponent.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from diffmod.errors import DomainError
from diffmod.groebner import full_module, syzygy_module
from diffmod.operators import LinearDiffOp
from diffmod.poly import Polynomial, PolyVec


def monomials_up_to(nvars, deg):
    out = [(0,) * nvars]
    for d in range(1, deg + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            m = [0] * nvars
            for i in combo:
                m[i] += 1
            out.append(tuple(m))
    return out


def solve_sparse(rows, rhs):
    """One solution of a sparse rational system, or None.

    rows: list of {col: Fraction}; rhs: parallel list of Fractions.
    """
    pivots = {}            # col -> (reduced row dict, value)
    order = []
    for row, val in zip(rows, rhs):
        row = dict(row)
        while True:
            hit = [col for col in row if col in pivots]
            if not hit:
                break
            for col in hit:
                f = row.pop(col, Fraction(0))
                if not f:
                    continue
                prow, pval = pivots[col]
                for c2, v2 in prow.items():
                    nv = row.get(c2, Fraction(0)) - f * v2
                    if nv:
                        row[c2] = nv
                    else:
                        row.pop(c2, None)
                val -= f * pval
        if not row:
            if val != 0:
                return None
            continue
        col = min(row)
        inv = 1 / row.pop(col)
        pivots[col] = ({c: v * inv for c, v in row.items()}, val * inv)
        order.append(col)
    sol = {}
    for col in reversed(order):
        prow, pval = pivots[col]
        acc = pval
        for c2, v2 in prow.items():
            acc -= v2 * sol.get(c2, Fraction(0))
        sol[col] = acc
    return sol


def nullspace_sparse(rows, ncols):
    """Basis of the rational nullspace of a sparse system (list of {col: c})."""
    pivots = {}
    order = []
    for row in rows:
        row = dict(row)
        while True:
            hit = [col for col in row if col in pivots]
            if not hit:
                break
            for col in hit:
                f = row.pop(col, Fraction(0))
                if not f:
                    continue
                for c2, v2 in pivots[col].items():
                    nv = row.get(c2, Fraction(0)) - f * v2
                    if nv:
                        row[c2] = nv
                    else:
                        row.pop(c2, None)
        if row:
            col = min(row)
            inv = 1 / row.pop(col)
            pivots[col] = {c: v * inv for c, v in row.items()}
            order.append(col)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = {fc: Fraction(1)}
        # a pivot row only references free columns and pivots created later,
        # so resolving in reverse creation order is well-founded
        for col in reversed(order):
            acc = Fraction(0)
            for c2, v2 in pivots[col].items():
                acc -= v2 * vec.get(c2, Fraction(0))
            if acc:
                vec[col] = acc
        basis.append(vec)
    return basis


def membership_by_linear_algebra(f, gens, degcap):
    """Is f = sum h_i g_i with deg(h_i * g_i) <= degcap?  Exact."""
    ring = f.ring
    n = ring.nvars
    cols = []
    rows = {}
    for gi, g in enumerate(gens):
        dg = g.degree()
        if dg < 0:
            continue
        for hm in monomials_up_to(n, max(degcap - dg, 0)):
            ci = len(cols)
            cols.append((gi, hm))
            for gm, gc in g.terms.items():
                mono = tuple(a + b for a, b in zip(hm, gm))
                bucket = rows.setdefault(mono, {})
                bucket[ci] = bucket.get(ci, Fraction(0)) + gc
    all_monos = set(rows) | set(f.terms)
    sys_rows = []
    rhs = []
    for mono in sorted(all_monos):
        sys_rows.append(rows.get(mono, {}))
        rhs.append(f.terms.get(mono, Fraction(0)))
    sol = solve_sparse(sys_rows, rhs)
    if sol is None:
        return False
    total = Polynomial.zero(ring)
    for ci, c in sol.items():
        if c:
            gi, hm = cols[ci]
            total = total + gens[gi] * Polynomial.monomial(ring, hm, c)
    return total == f


def vec_membership_by_linear_algebra(v, gens, degcap):
    """Module version: is v = sum h_k g_k with deg(h_k) + deg(g_k) <= degcap?"""
    ring = v.ring
    n = ring.nvars
    j = len(v)
    cols = []
    rows = {}
    for gi, g in enumerate(gens):
        dg = max((p.degree() for p in g.comps), default=-1)
        if dg < 0:
            continue
        for hm in monomials_up_to(n, max(degcap - dg, 0)):
            ci = len(cols)
            cols.append((gi, hm))
            for comp in range(j):
                for gm, gc in g.comps[comp].terms.items():
                    key = (comp, tuple(a + b for a, b in zip(hm, gm)))
                    bucket = rows.setdefault(key, {})
                    bucket[ci] = bucket.get(ci, Fraction(0)) + gc
    keys = set(rows)
    for comp in range(j):
        for m in v.comps[comp].terms:
            keys.add((comp, m))
    sys_rows = []
    rhs = []
    for key in sorted(keys):
        sys_rows.append(rows.get(key, {}))
        rhs.append(v.comps[key[0]].terms.get(key[1], Fraction(0)))
    sol = solve_sparse(sys_rows, rhs)
    if sol is None:
        return False
    total = [Polynomial.zero(ring) for _ in range(j)]
    for ci, c in sol.items():
        if c:
            gi, hm = cols[ci]
            mult = Polynomial.monomial(ring, hm, c)
            for comp in range(j):
                total[comp] = total[comp] + gens[gi].comps[comp] * mult
    return all(total[comp] == v.comps[comp] for comp in range(j))


def mclosure_poly_coeffs(op):
    """Generators of {P : L(Q P) = 0 identically for all polynomials Q}.

    Recursion on the order: the top-order layer contributes the linear
    equations sum_i a_gamma^i P_i = 0, the divergence-form rewrite drops
    the order, and the accumulated system is solved over the ring.
    """
    ring, n = op.ring, op.ncomps
    zero, origin = Polynomial.zero(ring), (0,) * ring.nvars
    cols = [[] for _ in range(n)]   # cols[i]: the coefficients of P_i
    cur = op
    while not cur.is_zero():
        s = cur.order()
        layer = sorted({alpha for (alpha, _) in cur.terms if sum(alpha) == s})
        for alpha in layer:
            for i, col in enumerate(cols):
                col.append(cur.terms.get((alpha, i), zero))
        if s == 0:
            break
        for alpha in layer:
            for i in range(n):
                a = cur.terms.get((alpha, i), zero)
                if a.is_zero():
                    continue
                expand = LinearDiffOp(ring, 1, {(alpha, 0): 1}).compose(
                    LinearDiffOp(ring, n, {(origin, i): a}))
                cur = cur - expand
        if not cur.is_zero() and cur.order() >= s:
            raise DomainError("internal: divergence rewrite did not drop the order")
    if not cols[0]:
        return full_module(ring, n)
    return syzygy_module([PolyVec(col) for col in cols])
