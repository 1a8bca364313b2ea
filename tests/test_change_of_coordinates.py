"""Metamorphic check: a change of ambient coordinates moves the answer
by the same substitution.

Replacing every stratum's map T by T*S (T the identity where the
manifest gives none), for an invertible S, describes the preimage of
the same set under x -> S x.  So `vanishing_ideal` and `main_mclosure`
must return linear_change_of_vars(result, S), up to module equality.
"""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from diffmod import poly, vanishing
from diffmod.groebner import SubmoduleBasis, module_equal
from diffmod.manifest import parse_operator_manifest, parse_strata_manifest
from diffmod.pipeline import main_mclosure
from diffmod.poly import Polynomial, PolyVec, Ring, linear_change_of_vars, mat_det
from diffmod.vanishing import pull_back, vanishing_ideal

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"
SEEDS = (1, 2, 3)


def _invertible(seed, n):
    rng = random.Random(9100 + seed)
    while True:
        s = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        if mat_det(s) != 0:
            return s


def _times(t, s):
    n = len(s)
    if t is None:
        t = [[int(i == k) for k in range(n)] for i in range(n)]
    return [[sum(Fraction(t[i][k]) * s[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _moved(basis, s):
    return SubmoduleBasis(basis.ring, basis.j,
                          [linear_change_of_vars(g, s) for g in basis.gens])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["level_set_negative_vanish.txt",
                                  "level_set_positive_vanish.txt"])
def test_vanishing_ideal_follows_a_change_of_coordinates(name, seed):
    strata = parse_strata_manifest((MANIFESTS / name).read_text())
    s = _invertible(seed, strata[0].ring.nvars)
    moved = [dataclasses.replace(st, T=_times(st.T, s)) for st in strata]
    assert module_equal(vanishing_ideal(moved), _moved(vanishing_ideal(strata), s))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, row", [
    ("level_set_negative_indicator.txt", None),
    ("level_set_positive_indicator.txt", None),
    ("level_set_positive_indicator.txt", "(1,0) ; (1)"),
], ids=["negative", "positive", "positive-1,0;1"])
def test_mclosure_follows_a_change_of_coordinates(name, row, seed):
    text = (MANIFESTS / name).read_text()
    if row is not None:
        text = text.replace("1 ; 1 ; (0,0) ; (0) ; 1", "1 ; 1 ; %s ; 1" % row)
    sop = parse_operator_manifest(text)
    s = _invertible(seed, sop.n)
    moved = dataclasses.replace(sop, strata=[
        dataclasses.replace(os_, t_ambient=_times(os_.t_ambient, s)) for os_ in sop.strata])
    assert module_equal(main_mclosure(moved).basis, _moved(main_mclosure(sop).basis, s))


def _spy(monkeypatch, module, name):
    """The argument tuples of every later call to module.<name>."""
    calls = []
    inner = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_pull_back_checks_its_map_once_per_call(monkeypatch):
    # all generators go through one set of variable images, so T is checked
    # once per pull_back, not once per generator
    ring = Ring.make(nx=2)
    gens = [PolyVec([Polynomial.parse(ring, t) for t in pair])
            for pair in (("x1", "x2^2"), ("x1*x2 - 1", "0"), ("x2", "x1 + 3"))]
    basis, t = SubmoduleBasis(ring, 2, gens), [[1, 2], [0, -1]]
    dets = _spy(monkeypatch, poly, "mat_det")
    pulled = pull_back(basis, ring, t)
    assert len(dets) == 1
    assert list(pulled.gens) == [linear_change_of_vars(g, t) for g in gens]
    assert list(pull_back(basis, ring, None).gens) == gens
    assert len(dets) == 1 + len(gens)


def test_mclosure_checks_each_map_once_per_pull_back(monkeypatch):
    # main_mclosure on the shipped positive indicator pulls its stratum
    # modules back through `meet`, once per distinct (stratum key, T) pair:
    # 11 of its 12 strata carry a T, but only 5 distinct pairs with a T, and
    # each pull-back checks its map by one determinant
    sop = parse_operator_manifest((MANIFESTS / "level_set_positive_indicator.txt").read_text())
    dets = _spy(monkeypatch, poly, "mat_det")
    pulls = _spy(monkeypatch, vanishing, "pull_back")
    main_mclosure(sop)
    assert len([args for args in pulls if args[2] is not None]) == len(dets) == 5
