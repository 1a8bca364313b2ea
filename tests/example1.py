"""Shared fixtures: the level sets E_a = {x^2 - z y^2 = 0, z <= a} as strata,
in both the plain form (for vanishing ideals) and the indicator-operator form
(for the main algorithm)."""

from fractions import Fraction

from diffmod.pipeline import OperatorStratum, StratifiedOperator
from diffmod.poly import Polynomial, Ring
from diffmod.realroots import SemialgebraicDescription, atom, desc_and
from diffmod.vanishing import Stratum

AMBIENT = Ring.make(nx=3)   # (x, y, z) = (x1, x2, x3), the ring of vanishing_ideal


def P(ring, s):
    return Polynomial.parse(ring, s)


def negative_level_strata():
    """E_{-1} = {x = y = 0, z <= -1}: the open ray and its endpoint."""
    ux = Ring.make(nx=1)
    ray_ring = Ring.make(nx=1, ny=2)
    ray = Stratum(
        n=1, m=2, p=0, ring=ray_ring,
        u_desc=SemialgebraicDescription(atom(P(ux, "-1*x1 - 1"), ">"), 1),
        anns_y=[P(ray_ring, "y1"), P(ray_ring, "y2")],
        witness=[-2, 0, 0],
        T=[[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    endpoint_ring = Ring.make(nx=0, ny=3)
    endpoint = Stratum(
        n=0, m=3, p=0, ring=endpoint_ring,
        anns_y=[P(endpoint_ring, "y1"), P(endpoint_ring, "y2"),
                P(endpoint_ring, "y3 + 1")],
        witness=[0, 0, -1])
    return [ray, endpoint]


def positive_level_strata():
    """E_1: four branch surfaces over 0 < z < 1, the line x = y = 0 (z < 1),
    the y-axis at z = 0, the boundary lines at z = 1, and the top point."""
    u2 = Ring.make(nx=2)
    u1 = Ring.make(nx=1)
    strata = []
    branch_ring = Ring.make(nx=2, ny=1)
    t_branch = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]      # local (y, z, x)
    for ysign in (1, -1):
        for xsign in (1, -1):
            u = desc_and(atom(P(u2, "x1") * ysign, ">"),
                         atom(P(u2, "x2"), ">"),
                         atom(P(u2, "1 - x2"), ">"))
            strata.append(Stratum(
                n=2, m=1, p=0, ring=branch_ring,
                u_desc=SemialgebraicDescription(u, 2),
                anns_y=[P(branch_ring, "y1^2 - x2*x1^2")],
                witness=[Fraction(ysign), Fraction(1, 4), Fraction(xsign * ysign, 2)],
                T=t_branch))
    line_ring = Ring.make(nx=1, ny=2)
    t_line = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]        # local (z, x, y)
    strata.append(Stratum(
        n=1, m=2, p=0, ring=line_ring,
        u_desc=SemialgebraicDescription(atom(P(u1, "1 - x1"), ">"), 1),
        anns_y=[P(line_ring, "y1"), P(line_ring, "y2")],
        witness=[0, 0, 0], T=t_line))
    t_yaxis = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]       # local (y, x, z)
    for s in (1, -1):
        strata.append(Stratum(
            n=1, m=2, p=0, ring=line_ring,
            u_desc=SemialgebraicDescription(atom(P(u1, "x1") * s, ">"), 1),
            anns_y=[P(line_ring, "y1"), P(line_ring, "y2")],
            witness=[s, 0, 0], T=t_yaxis))
    for s in (1, -1):
        for branch in (1, -1):
            strata.append(Stratum(
                n=1, m=2, p=0, ring=line_ring,
                u_desc=SemialgebraicDescription(atom(P(u1, "x1") * s, ">"), 1),
                anns_y=[P(line_ring, "y1 - x1") if branch == 1
                        else P(line_ring, "y1 + x1"),
                        P(line_ring, "y2 - 1")],
                witness=[s, branch * s, 1], T=t_yaxis))
    top_ring = Ring.make(nx=0, ny=3)
    strata.append(Stratum(
        n=0, m=3, p=0, ring=top_ring,
        anns_y=[P(top_ring, "y1"), P(top_ring, "y2"), P(top_ring, "y3 - 1")],
        witness=[0, 0, 1]))
    return strata


def indicator_operator_stratum(stratum):
    """The 0th-order indicator operator on one stratum: a single coefficient
    slot, identically 1, encoded by the annihilator z1 - 1."""
    ring = Ring.make(nx=stratum.n, ny=stratum.m, nz=1)
    lift = {i: i for i in range(stratum.n + stratum.m)}
    wit = None
    if stratum.witness is not None:
        wit = list(stratum.witness) + [Fraction(1)]
    st = Stratum(n=stratum.n, m=stratum.m, p=1, ring=ring,
                 u_desc=stratum.u_desc,
                 anns_y=[p.lift(ring, lift) for p in stratum.anns_y],
                 anns_z=[Polynomial.variable(ring, ring.nvars - 1) - 1],
                 witness=wit)
    entries = [(1, 0, (0,) * stratum.n, (0,) * stratum.m, 1)]
    return OperatorStratum(st, entries, stratum.T)


def indicator_operator(strata, n=3):
    return StratifiedOperator(
        n=n, j=1, k=1, strata=[indicator_operator_stratum(s) for s in strata])
