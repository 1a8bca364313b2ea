"""Line-oriented text manifests for the command-line tool.

A manifest is a sequence of `[section]` headers followed by `key = value`
lines and bare payload lines.  Unknown sections and malformed lines are
rejected with their line number.  The polynomial syntax is the canonical
text form of the engine, e.g. ``x1^2 - 1/2*z1*y1^2``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ManifestError, StructuralError
from .operators import LinearDiffOp
from .orders import block_order, grevlex_order, lex_order
from .pipeline import OperatorStratum, StratifiedOperator
from .poly import Polynomial, PolyVec, Ring
from .realroots import SemialgebraicDescription, SignCondition
from .vanishing import Stratum


_INT = re.compile(r"-?[0-9]+")
_FRACTION = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")   # no zero denominator


def parse_int(text):
    """The integer written as ASCII digits with an optional leading '-',
    blanks around it aside.  Anything else, such as '+1' or '1_0', raises
    ValueError."""
    text = text.strip()
    if not _INT.fullmatch(text):
        raise ValueError("bad integer %r" % text)
    return int(text)


def parse_fraction(text):
    """The rational written as an integer or num/den, read like parse_int;
    anything else, such as '1/0', '+1/2' or '1e3', raises ValueError."""
    text = text.strip()
    if not _FRACTION.fullmatch(text):
        raise ValueError("bad rational %r" % text)
    return Fraction(text)


def _int_key(section, key, default=None):
    """The integer value of `key` in a keyed section; a missing key takes
    `default`, and is an error when there is none."""
    if key not in section.keys:
        if default is None:
            raise ManifestError("%s needs %s" % (section.name, key), section.line)
        return default
    value, line = section.keys[key]
    try:
        return parse_int(value)
    except ValueError:
        raise ManifestError("bad integer for %s" % key, line) from None


def _parse_fraction(text, line):
    try:
        return parse_fraction(text)
    except ValueError:
        raise ManifestError("bad rational %r" % text, line) from None


class Section:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.keys = {}       # key -> (value, line)
        self.payload = []    # (text, line)


# sections whose lines are `key = value`, with the keys each may hold;
# all others carry raw payload lines.  [stratum] also takes `anny K` and
# `annz K`, whose index K parse_stratum checks
_KEYED = {"ring": {"x", "y", "z", "order"},
          "stratum": {"n", "m", "p", "u", "t", "witness"},
          "operator": {"n", "j", "k"},
          "params": {"power"}}


def _known_key(section, key):
    words = key.split()
    return key in _KEYED[section] or (
        section == "stratum" and len(words) == 2 and words[0] in ("anny", "annz"))


def split_sections(text):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ManifestError("unterminated section header", lineno)
            current = Section(line[1:-1].strip().lower(), lineno)
            sections.append(current)
            continue
        if current is None:
            raise ManifestError("content before any [section]", lineno)
        if current.name in _KEYED:
            if "=" not in line:
                raise ManifestError("expected 'key = value'", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            key = " ".join(key.lower().split())
            if not _known_key(current.name, key):
                raise ManifestError("unknown key %r" % key, lineno)
            if key in current.keys:
                raise ManifestError("duplicate key %r" % key, lineno)
            current.keys[key] = (value, lineno)
        else:
            current.payload.append((line, lineno))
    return sections


def _names_from(value, line):
    value = value.strip()
    if not value:
        return []
    return [v.strip() for v in value.split(",") if v.strip()]


def parse_ring(section):
    xs = _names_from(*section.keys.get("x", ("", section.line)))
    ys = _names_from(*section.keys.get("y", ("", section.line)))
    zs = _names_from(*section.keys.get("z", ("", section.line)))
    if not (xs or ys or zs):
        raise ManifestError("ring with no variables", section.line)
    try:
        ring = Ring(tuple(xs + ys + zs), "x" * len(xs) + "y" * len(ys) + "z" * len(zs))
    except StructuralError as exc:
        raise ManifestError(str(exc), section.line) from None
    order = grevlex_order()
    if "order" in section.keys:
        order = parse_order(*section.keys["order"])
    return ring, order


def parse_order(text, line=None):
    """The monomial order named lex, grevlex or block:K."""
    text = text.strip().lower()
    if text == "lex":
        return lex_order()
    if text == "grevlex":
        return grevlex_order()
    if text.startswith("block:"):
        try:
            return block_order(parse_int(text.split(":", 1)[1]))
        except ValueError:
            raise ManifestError("bad block order split", line) from None
    raise ManifestError("unknown order %r" % text, line)


def parse_poly(ring, text, line):
    try:
        return Polynomial.parse(ring, text)
    except StructuralError as exc:
        raise ManifestError(str(exc), line) from None


def parse_var(ring, name, line):
    """The index of the variable called `name`; an unknown name is a parse error."""
    try:
        return ring.index(name.strip())
    except StructuralError as exc:
        raise ManifestError(str(exc), line) from None


def parse_vec(ring, text, line):
    return PolyVec([parse_poly(ring, part, line) for part in text.split(";")])


def parse_vec_lines(ring, section):
    return [parse_vec(ring, text, line) for text, line in section.payload]


def _parse_atom(ring, text, line):
    for rel in (">", "<", "="):
        if rel in text:
            left, right = text.split(rel, 1)
            if right.strip() != "0":
                raise ManifestError("sign conditions compare against 0", line)
            try:
                return SignCondition(parse_poly(ring, left, line), rel)
            except StructuralError as exc:
                raise ManifestError(str(exc), line) from None
    raise ManifestError("no relation in %r" % text, line)


def parse_desc_line(ring, text, line):
    """One clause: sign conditions separated by '&&', or the word 'true'
    for the empty clause."""
    text = text.strip()
    if text.lower() == "true":
        return ()
    return tuple(_parse_atom(ring, p.strip(), line) for p in text.split("&&"))


def parse_desc_section(ring, section):
    """The union of the section's lines, one clause each."""
    clauses = tuple(parse_desc_line(ring, text, line) for text, line in section.payload)
    if not clauses:
        raise ManifestError("empty description", section.line)
    return SemialgebraicDescription(clauses, ring.nvars)


def _parse_matrix(value, line):
    return [[_parse_fraction(v, line) for v in chunk.split(",")] for chunk in value.split(";")]


def parse_stratum(section, k=None):
    """The [stratum] section as a Stratum.  An operator stratum passes its
    coefficient count k: then p must equal k, and the result is the pair
    (Stratum without T, T as given) for OperatorStratum to check."""
    n = _int_key(section, "n")
    m = _int_key(section, "m")
    p = _int_key(section, "p", 0)
    if k is not None and p != k:
        raise ManifestError("stratum p must equal the coefficient count",
                            section.line)
    ring = Ring.make(nx=n, ny=m, nz=p)
    ring_x = Ring.make(nx=n)

    u_desc = None
    if "u" in section.keys:
        value, line = section.keys["u"]
        u_desc = SemialgebraicDescription((parse_desc_line(ring_x, value, line),), n)

    anns_y = [None] * m
    anns_z = [None] * p
    for key in section.keys:
        for prefix, target in (("anny ", anns_y), ("annz ", anns_z)):
            if key.startswith(prefix):
                value, line = section.keys[key]
                try:
                    idx = parse_int(key.split()[1])
                except (ValueError, IndexError):
                    raise ManifestError("bad annihilator key %r" % key, line) from None
                if not (1 <= idx <= len(target)):
                    raise ManifestError("annihilator index out of range", line)
                target[idx - 1] = parse_poly(ring, value, line)
    if any(a is None for a in anns_y):
        raise ManifestError("missing anny entries", section.line)
    if any(a is None for a in anns_z):
        raise ManifestError("missing annz entries", section.line)

    witness = None
    if "witness" in section.keys:
        value, line = section.keys["witness"]
        witness = [_parse_fraction(v, line) for v in value.split(",")]

    tmat = None
    if "t" in section.keys:
        value, line = section.keys["t"]
        tmat = _parse_matrix(value, line)

    try:
        st = Stratum(n=n, m=m, p=p, ring=ring, u_desc=u_desc, anns_y=anns_y,
                     anns_z=anns_z, witness=witness, T=tmat if k is None else None)
    except StructuralError as exc:
        raise ManifestError("bad stratum: %s" % exc, section.line) from None
    return st if k is None else (st, tmat)


def parse_strata_manifest(text):
    sections = split_sections(text)
    strata = []
    for sec in sections:
        if sec.name != "stratum":
            raise ManifestError("unexpected section [%s]" % sec.name, sec.line)
        strata.append(parse_stratum(sec))
    if not strata:
        raise ManifestError("no strata", 1)
    return strata


def _parse_multi(text, line, length):
    text = text.strip()
    if not text.startswith("(") or not text.endswith(")"):
        raise ManifestError("multi-index must be parenthesized", line)
    inner = text[1:-1].strip()
    parts = [p.strip() for p in inner.split(",")] if inner else []
    try:
        multi = tuple(parse_int(p) for p in parts)
    except ValueError:
        multi = None
    if multi is None or any(e < 0 for e in multi):
        raise ManifestError("bad multi-index %r" % text, line)
    if len(multi) != length:
        raise ManifestError("multi-index of length %d, expected %d"
                            % (len(multi), length), line)
    return multi


def parse_coeff_entries(section, n_local, m_local, k, j):
    entries = []
    for text, line in section.payload:
        parts = [p.strip() for p in text.split(";")]
        if len(parts) != 5:
            raise ManifestError("coefficient rows are 'lam ; comp ; ax ; ay ; omega'",
                                line)
        try:
            lam = parse_int(parts[0])
            comp = parse_int(parts[1])
        except ValueError:
            raise ManifestError("bad index in coefficient row", line) from None
        ax = _parse_multi(parts[2], line, n_local)
        ay = _parse_multi(parts[3], line, m_local)
        omega = _parse_fraction(parts[4], line)
        if not (1 <= lam <= k):
            raise ManifestError("coefficient slot out of range", line)
        if not (1 <= comp <= j):
            raise ManifestError("component index out of range", line)
        entries.append((lam, comp - 1, ax, ay, omega))
    if not entries:
        raise ManifestError("empty coefficient table", section.line)
    return entries


def parse_operator_manifest(text):
    sections = split_sections(text)
    if not sections or sections[0].name != "operator":
        raise ManifestError("operator manifests start with [operator]", 1)
    head = sections[0]
    n = _int_key(head, "n")
    j = _int_key(head, "j")
    k = _int_key(head, "k")
    strata = []
    idx = 1
    while idx < len(sections):
        sec = sections[idx]
        if sec.name != "stratum":
            raise ManifestError("expected [stratum], got [%s]" % sec.name, sec.line)
        st, tmat = parse_stratum(sec, k)
        idx += 1
        if idx >= len(sections) or sections[idx].name != "coeffs":
            raise ManifestError("each stratum needs a [coeffs] section",
                                sec.line)
        entries = parse_coeff_entries(sections[idx], st.n, st.m, k, j)
        idx += 1
        try:
            strata.append(OperatorStratum(st, entries, tmat))
        except StructuralError as exc:
            raise ManifestError(str(exc), sec.line) from None
    try:
        return StratifiedOperator(n=n, j=j, k=k, strata=strata)
    except StructuralError as exc:
        raise ManifestError(str(exc), sections[0].line) from None


def parse_operator_lines(ring, ncomps, section):
    """Operator rows 'coeff ; (alpha) ; component' (component is 1-based)."""
    terms = {}
    for text, line in section.payload:
        parts = [p.strip() for p in text.split(";")]
        if len(parts) != 3:
            raise ManifestError("operator rows are 'coeff ; (alpha) ; comp'", line)
        coeff = parse_poly(ring, parts[0], line)
        alpha = _parse_multi(parts[1], line, ring.nvars)
        try:
            comp = parse_int(parts[2]) - 1
        except ValueError:
            raise ManifestError("bad component", line) from None
        key = (alpha, comp)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    try:
        return LinearDiffOp(ring, ncomps, terms)
    except StructuralError as exc:
        raise ManifestError(str(exc), section.line) from None


def section_map(sections):
    out = {}
    for sec in sections:
        out.setdefault(sec.name, []).append(sec)
    return out


def need(smap, name):
    if len(smap.get(name, ())) != 1:
        raise ManifestError("manifest needs exactly 1 [%s] section(s)" % name, 1)
    return smap[name][0]
