"""Command-line front end.

Every subcommand reads a manifest file (or stdin with '-') and prints a
deterministic result: identical input and flags give byte-identical output.
Exit codes: 0 success, 2 parse error, 3 domain/structural error,
4 unsupported input.  When stdout closes early, as in `| head`, the
process ends quietly: nothing goes to stderr, and a write to the closed
pipe ends it by SIGPIPE (status 141 in a shell).
"""

from __future__ import annotations

import argparse
import signal
import sys

from .errors import (DomainError, ManifestError, StructuralError,
                     UnsupportedInputError, WitnessSearchError)
from .groebner import (SubmoduleBasis, buchberger, critical_l, eliminate,
                       intersect, normal_form, saturate, solve_inhomogeneous,
                       syzygy_module)
from .manifest import (need, parse_desc_section, parse_fraction, parse_int,
                       parse_operator_lines, parse_operator_manifest, parse_order,
                       parse_poly, parse_ring, parse_strata_manifest, parse_var,
                       parse_vec, parse_vec_lines, section_map, split_sections)
from .orders import top_order
from .pipeline import main_mclosure
from .poly import PolyVec
from .quasimonic import QuasiMonic, reduce_mod_powers
from .realroots import find_witness_point, isolate_real_roots
from .vanishing import vanishing_ideal



_ALLOWED = {
    "gb": {"ring", "polys"},
    "nf": {"ring", "polys", "target"},
    "syz": {"ring", "polys"},
    "intersect": {"ring", "left", "right"},
    "saturate": {"ring", "polys", "by"},
    "eliminate": {"ring", "polys", "drop"},
    "solve": {"ring", "matrix", "rhs"},
    "critical-l": {"ring", "amatrix", "bmatrix", "delta"},
    "roots": {"ring", "poly"},
    "witness": {"ring", "desc", "avoid"},
    "qdiv": {"ring", "target", "divisors", "params"},
    "apply": {"ring", "op", "vec"},
}


def _reject_unknown(command, smap):
    for name, secs in smap.items():
        if name not in _ALLOWED[command]:
            raise ManifestError("unknown section [%s] for %s" % (name, command),
                                secs[0].line)


def _print_basis(basis, order=None):
    if not basis.gens:
        print("0")
        return
    for g in sorted(basis.gens, key=lambda v: v.text(order)):
        print(g.text(order))


def _ring_and_map(text, args, command):
    smap = section_map(split_sections(text))
    _reject_unknown(command, smap)
    ring, order = parse_ring(need(smap, "ring"))
    if args.order:
        order = parse_order(args.order)
    return ring, order, smap


def _generators(ring, smap, name):
    """The vectors of section [name], which must list at least one."""
    section = need(smap, name)
    if not section.payload:
        raise ManifestError("[%s] lists no generators" % name, section.line)
    return parse_vec_lines(ring, section)


def _line(smap, name):
    """The (text, line) of section [name], which must hold exactly one line."""
    section = need(smap, name)
    if len(section.payload) != 1:
        raise ManifestError("[%s] must hold exactly one line" % name, section.line)
    return section.payload[0]


def cmd_gb(text, args):
    ring, order, smap = _ring_and_map(text, args, 'gb')
    vecs = parse_vec_lines(ring, need(smap, "polys"))
    basis = SubmoduleBasis(ring, len(vecs[0]) if vecs else 1, vecs,
                           order=top_order(order))
    _print_basis(buchberger(basis), order)
    return 0


def cmd_nf(text, args):
    ring, order, smap = _ring_and_map(text, args, 'nf')
    vecs = parse_vec_lines(ring, need(smap, "polys"))
    target = parse_vec(ring, *_line(smap, "target"))
    basis = buchberger(SubmoduleBasis(ring, len(target), vecs,
                                      order=top_order(order)))
    print(normal_form(target, basis).text(order))
    return 0


def cmd_syz(text, args):
    ring, order, smap = _ring_and_map(text, args, 'syz')
    vecs = _generators(ring, smap, "polys")
    _print_basis(syzygy_module(vecs), order)
    return 0


def cmd_intersect(text, args):
    ring, order, smap = _ring_and_map(text, args, 'intersect')
    left = _generators(ring, smap, "left")
    right = parse_vec_lines(ring, need(smap, "right"))
    j = len(left[0])
    out = intersect(SubmoduleBasis(ring, j, left), SubmoduleBasis(ring, j, right))
    _print_basis(out, order)
    return 0


def cmd_saturate(text, args):
    ring, order, smap = _ring_and_map(text, args, 'saturate')
    vecs = _generators(ring, smap, "polys")
    f = parse_poly(ring, *_line(smap, "by"))
    out = saturate(SubmoduleBasis(ring, len(vecs[0]), vecs), f)
    _print_basis(out, order)
    return 0


def cmd_eliminate(text, args):
    ring, order, smap = _ring_and_map(text, args, 'eliminate')
    vecs = _generators(ring, smap, "polys")
    names, line = _line(smap, "drop")
    drop = [parse_var(ring, v, line) for v in names.split(",")]
    out = eliminate(SubmoduleBasis(ring, len(vecs[0]), vecs), drop)
    _print_basis(out, order)
    return 0


def _transpose(rows):
    """The column vectors of a matrix given by its rows; rows of unequal
    length raise StructuralError."""
    if any(len(r) != len(rows[0]) for r in rows):
        raise StructuralError("ragged matrix")
    return [PolyVec(col) for col in zip(*(r.comps for r in rows))]


def cmd_solve(text, args):
    ring, order, smap = _ring_and_map(text, args, 'solve')
    rows = parse_vec_lines(ring, need(smap, "matrix"))
    rhs = [parse_poly(ring, t, l) for t, l in need(smap, "rhs").payload]
    sol = solve_inhomogeneous(_transpose(rows), rhs)
    if sol is None:
        print("no solution")
    else:
        print(sol.text(order))
    return 0


def cmd_critical_l(text, args):
    ring, order, smap = _ring_and_map(text, args, 'critical-l')
    amat = parse_vec_lines(ring, need(smap, "amatrix"))
    bmat = parse_vec_lines(ring, need(smap, "bmatrix"))
    delta = parse_poly(ring, *_line(smap, "delta"))
    # row counts are checked before raggedness
    if not bmat:
        raise StructuralError("empty B matrix")
    if amat and len(amat) != len(bmat):
        raise StructuralError("A/B row mismatch")
    l0, module = critical_l(_transpose(amat), _transpose(bmat), delta)
    print("l0 = %d" % l0)
    _print_basis(module, order)
    return 0


def cmd_roots(text, args):
    ring, order, smap = _ring_and_map(text, args, 'roots')
    p = parse_poly(ring, *_line(smap, "poly"))
    try:
        width = None if args.width is None else parse_fraction(args.width)
    except ValueError:
        raise ManifestError("bad --width %r" % args.width) from None
    for iv in isolate_real_roots(p, width):
        if iv.exact:
            print("root %s" % iv.lower)
        else:
            print("interval [%s, %s]" % (iv.lower, iv.upper))
    return 0


def cmd_witness(text, args):
    ring, order, smap = _ring_and_map(text, args, 'witness')
    desc = parse_desc_section(ring, need(smap, "desc"))
    avoid = []
    if "avoid" in smap:
        avoid = [parse_poly(ring, t, l) for t, l in smap["avoid"][0].payload]
    point = find_witness_point(desc, avoid, budget=args.budget)
    if point is None:
        print("no witness found within budget")
        return 0
    print(", ".join(str(v) for v in point))
    return 0


def cmd_qdiv(text, args):
    ring, order, smap = _ring_and_map(text, args, 'qdiv')
    p = parse_poly(ring, *_line(smap, "target"))
    qs = []
    for t, l in need(smap, "divisors").payload:
        parts = [x.strip() for x in t.split(";")]
        if len(parts) != 2:
            raise ManifestError("divisor rows are 'poly ; var'", l)
        qs.append(QuasiMonic(parse_poly(ring, parts[0], l), parse_var(ring, parts[1], l)))
    power = 1
    if "params" in smap and "power" in smap["params"][0].keys:
        value, line = smap["params"][0].keys["power"]
        try:
            power = parse_int(value)
        except ValueError:
            raise ManifestError("bad integer for power", line) from None
    cert = reduce_mod_powers(p, qs, power)
    print("l = %d" % cert.l)
    for i, h in enumerate(cert.cofactors):
        print("cofactor %d = %s" % (i + 1, h.text(order)))
    print("remainder = %s" % cert.remainder.text(order))
    return 0


def cmd_apply(text, args):
    ring, order, smap = _ring_and_map(text, args, 'apply')
    vec = parse_vec(ring, *_line(smap, "vec"))
    op = parse_operator_lines(ring, len(vec), need(smap, "op"))
    print(op.apply(vec).text(order))
    return 0


def cmd_vanish(text, args):
    strata = parse_strata_manifest(text)
    out = vanishing_ideal(strata, budget=args.budget)
    _print_basis(out)
    return 0


def cmd_mclosure(text, args):
    sop = parse_operator_manifest(text)
    res = main_mclosure(sop, check=args.check)
    if args.log:
        for line in res.provenance:
            print("# %s" % line)
    _print_basis(res.basis)
    return 0


_COMMANDS = {
    "gb": cmd_gb,
    "nf": cmd_nf,
    "syz": cmd_syz,
    "intersect": cmd_intersect,
    "saturate": cmd_saturate,
    "eliminate": cmd_eliminate,
    "solve": cmd_solve,
    "critical-l": cmd_critical_l,
    "roots": cmd_roots,
    "witness": cmd_witness,
    "qdiv": cmd_qdiv,
    "apply": cmd_apply,
    "vanish": cmd_vanish,
    "mclosure": cmd_mclosure,
}


def positive_int(text):
    """An integer of at least 1, read like every manifest integer."""
    value = parse_int(text)
    if value < 1:
        raise ValueError(text)
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="diffmod",
        description="Exact polynomial algebra for differential-operator modules.")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("manifest", help="manifest file, or - for stdin")
    ap.add_argument("--order", default=None,
                    help="override the [ring] order: lex, grevlex or block:K; gb and "
                    "nf compute under it, the other commands except vanish and "
                    "mclosure print under it")
    ap.add_argument("--budget", type=positive_int, default=20000,
                    help="cap on the points the witness search evaluates (witness, vanish)")
    ap.add_argument("--width", default=None, help="refine root intervals below this width")
    ap.add_argument("--log", action="store_true", help="emit the provenance ledger")
    ap.add_argument("--check", action="store_true",
                    help="certify the result exactly on every stratum before printing "
                    "(mclosure; exit 3 if it fails)")
    return ap


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.manifest == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(args.manifest, "rb") as fh:
                data = fh.read()
        text = data.decode("ascii")
    except (OSError, UnicodeDecodeError) as exc:
        print("cannot read manifest: %s" % exc, file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](text, args)
    except ManifestError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except UnsupportedInputError as exc:
        print("unsupported input: %s" % exc, file=sys.stderr)
        return 4
    except (DomainError, StructuralError, WitnessSearchError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


def main():
    # the default action ends the process at a closed pipe, with no
    # BrokenPipeError traceback; run() keeps Python's handler for callers
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
