import io
import sys

import pytest

from diffmod.cli import run

from conftest import within


def run_cli(capsys, args):
    code = run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GB_MANIFEST = """
[ring]
x = x1, x2
order = lex
[polys]
x1 - x2
x2 - 1
"""


def test_gb_triangular(tmp_path, capsys):
    path = write(tmp_path, "gb.txt", GB_MANIFEST)
    code, out, err = run_cli(capsys, ["gb", path])
    assert code == 0
    assert out.splitlines() == ["x1 - 1", "x2 - 1"]


def test_gb_deterministic(tmp_path, capsys):
    path = write(tmp_path, "gb.txt", GB_MANIFEST)
    _, out1, _ = run_cli(capsys, ["gb", path])
    _, out2, _ = run_cli(capsys, ["gb", path])
    assert out1 == out2


def test_gb_order_option_changes_basis(tmp_path, capsys):
    text = "[ring]\nx = x1, x2\n[polys]\nx1^2 - x2\nx1*x2 - 1\n"
    path = write(tmp_path, "gb.txt", text)
    code, lex, _ = run_cli(capsys, ["gb", path, "--order", "lex"])
    assert code == 0
    assert lex.splitlines() == ["x1 - x2^2", "x2^3 - 1"]
    code, grevlex, _ = run_cli(capsys, ["gb", path, "--order", "grevlex"])
    assert code == 0
    assert grevlex.splitlines() == ["x1*x2 - 1", "x1^2 - x2", "x2^2 - x1"]


def test_gb_output_reparses(tmp_path, capsys):
    path = write(tmp_path, "gb.txt", GB_MANIFEST)
    _, out, _ = run_cli(capsys, ["gb", path])
    from diffmod.poly import Polynomial, Ring
    ring = Ring(("x1", "x2"), "xx")
    for line in out.splitlines():
        Polynomial.parse(ring, line)


def test_nf(tmp_path, capsys):
    text = """
[ring]
x = x1, x2
order = lex
[polys]
x1 - x2
[target]
x1^2*x2
"""
    path = write(tmp_path, "nf.txt", text)
    code, out, _ = run_cli(capsys, ["nf", path])
    assert code == 0
    assert out.strip() == "x2^3"


def test_syz(tmp_path, capsys):
    text = """
[ring]
x = x1, x2
[polys]
x1
x2
"""
    path = write(tmp_path, "syz.txt", text)
    code, out, _ = run_cli(capsys, ["syz", path])
    assert code == 0
    assert "x2 ; -x1" in out or "-x2 ; x1" in out


def test_solve_no_solution(tmp_path, capsys):
    text = """
[ring]
x = x1, x2
[matrix]
x1
[rhs]
x2
"""
    path = write(tmp_path, "solve.txt", text)
    code, out, _ = run_cli(capsys, ["solve", path])
    assert code == 0
    assert out.strip() == "no solution"


def test_roots_no_real(tmp_path, capsys):
    text = """
[ring]
x = x1
[poly]
x1^2 + 1
"""
    path = write(tmp_path, "roots.txt", text)
    code, out, _ = run_cli(capsys, ["roots", path])
    assert code == 0
    assert out.strip() == ""


def test_roots_sqrt2_refined(tmp_path, capsys):
    text = """
[ring]
x = x1
[poly]
x1^2 - 2
"""
    path = write(tmp_path, "roots.txt", text)
    code, out, _ = run_cli(capsys, ["roots", path, "--width", "1/1000000"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("interval") for line in lines)


@pytest.mark.parametrize("flag, code", [
    (["--width", "0"], 3), (["--width=-1/2"], 3),     # nonpositive: domain error
    (["--width", "abc"], 2), (["--width", "1/0"], 2),  # malformed: parse error
])
def test_roots_bad_width(tmp_path, capsys, flag, code):
    # the width is checked whether or not the polynomial has real roots
    for poly in ("x1^2 - 2", "x1^2 + 1"):
        path = write(tmp_path, "roots.txt", "[ring]\nx = x1\n[poly]\n%s\n" % poly)
        got, out, err = run_cli(capsys, ["roots", path] + flag)
        assert got == code and out == ""
        assert err.startswith("error:" if code == 3 else "parse error:")


@pytest.mark.parametrize("order", ["block:x", "block:", "revlex"])
def test_bad_order_option_is_parse_error(tmp_path, capsys, order):
    path = write(tmp_path, "gb.txt", GB_MANIFEST)
    code, out, err = run_cli(capsys, ["gb", path, "--order", order])
    assert code == 2 and out == "" and err.startswith("parse error:")


def test_witness(tmp_path, capsys):
    text = """
[ring]
x = x1
[desc]
x1 > 0
[avoid]
x1 - 1
"""
    path = write(tmp_path, "wit.txt", text)
    code, out, _ = run_cli(capsys, ["witness", path])
    assert code == 0
    from fractions import Fraction
    v = Fraction(out.strip())
    assert v > 0 and v != 1


@pytest.mark.parametrize("budget", ["1_0", "+3", "0", "-5"])
def test_budget_is_a_positive_integer(tmp_path, capsys, budget):
    # --budget is read like every manifest integer, and must be at least 1
    path = write(tmp_path, "wit.txt", "[ring]\nx = x1\n[desc]\nx1 > 0\n")
    with pytest.raises(SystemExit) as exc:
        run(["witness", path, "--budget", budget])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "--budget" in out.err
    code, out, err = run_cli(capsys, ["witness", path, "--budget", "10"])
    assert (code, out, err) == (0, "1\n", "")


# alternative [desc] lines are OR-ed: the search prunes a partial point only
# when every line has a violated condition
@pytest.mark.parametrize("lines, avoid", [
    (["x1 > 0", "x1 < 0"], []),
    (["x1 > 0 && x2 > 0", "x1 < 0 && x2 < 0"], []),
    (["x1 > 0 && x2 > 0", "x1 < 0 && x2 < 0"], ["x1 - 1", "x2 - 1"]),
    (["x1^2 + x2^2 - 1 < 0 && x2 > 0", "x1 - 3 > 0"], ["x1"]),
], ids=["halflines", "quadrants", "quadrants-avoid", "disc-or-halfplane"])
def test_witness_satisfies_one_desc_line(tmp_path, capsys, lines, avoid):
    from fractions import Fraction
    from diffmod.poly import Polynomial, Ring
    text = "[ring]\nx = x1, x2\n[desc]\n%s\n" % "\n".join(lines)
    if avoid:
        text += "[avoid]\n%s\n" % "\n".join(avoid)
    code, out, err = run_cli(capsys, ["witness", write(tmp_path, "wit.txt", text)])
    assert (code, err) == (0, "")
    point = [Fraction(v) for v in out.strip().split(", ")]
    ring = Ring(("x1", "x2"), "xx")

    def value(poly):
        return Polynomial.parse(ring, poly).evaluate(point)

    def holds(cond):
        poly, rel, _ = cond.rsplit(" ", 2)
        return value(poly) > 0 if rel == ">" else value(poly) < 0

    assert any(all(holds(c) for c in line.split(" && ")) for line in lines)
    assert all(value(p) != 0 for p in avoid)


def test_witness_true_line_covers_space(tmp_path, capsys):
    text = "[ring]\nx = x1\n[desc]\ntrue\nx1 > 0\n"
    code, out, err = run_cli(capsys, ["witness", write(tmp_path, "wit.txt", text)])
    assert (code, out, err) == (0, "0\n", "")


def test_qdiv(tmp_path, capsys):
    text = """
[ring]
x = x1
y = y1
[target]
y1^2
[divisors]
x1*y1 + x1 + 1 ; y1
[params]
power = 1
"""
    path = write(tmp_path, "qdiv.txt", text)
    code, out, _ = run_cli(capsys, ["qdiv", path])
    assert code == 0
    assert out.startswith("l = ")


def test_closed_stdout_ends_quietly(tmp_path):
    # main() restores the default SIGPIPE action: a write to a pipe whose
    # reader is gone ends the process with no BrokenPipeError traceback
    import os
    import pathlib
    import signal
    import subprocess
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    read, write_end = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diffmod.cli", "gb", write(tmp_path, "gb.txt", GB_MANIFEST)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, "")


def test_apply(tmp_path, capsys):
    text = """
[ring]
x = x1
y = y1
[op]
2*x1 ; (1,0) ; 1
[vec]
x1^2
"""
    path = write(tmp_path, "apply.txt", text)
    code, out, _ = run_cli(capsys, ["apply", path])
    assert code == 0
    assert out.strip() == "4*x1^2"


# every operator key is checked, whatever its coefficient
@pytest.mark.parametrize("coeff", ["1", "0"])
def test_apply_rejects_component_out_of_range(tmp_path, capsys, coeff):
    text = "[ring]\nx = x1, x2\n[op]\n%s ; (1,0) ; 7\n[vec]\nx1^2\n" % coeff
    path = write(tmp_path, "apply.txt", text)
    code, out, err = run_cli(capsys, ["apply", path])
    assert (code, out, err) == (2, "", "parse error: line 3: component index out of range\n")


# an empty or a negative entry is a bad multi-index; an empty block () is not
_OP_ROW = "[ring]\nx = x1, x2\n[op]\n1 ; %s ; 1\n[vec]\nx1^2\n"
_COEFFS_ROW = ("[operator]\nn = 2\nj = 1\nk = 1\n[stratum]\nn = 2\nm = 0\np = 1\n"
               "U = true\nannz 1 = z1 - 1\nwitness = 0, 0, 1\n[coeffs]\n"
               "1 ; 1 ; %s ; () ; 1\n")


@pytest.mark.parametrize("command, text, line, multi", [
    ("apply", _OP_ROW, 4, "(1,,0)"),
    ("mclosure", _COEFFS_ROW, 13, "(1,,0)"),
    ("apply", _OP_ROW, 4, "(-1,0)"),
    ("mclosure", _COEFFS_ROW, 13, "(-1,0)"),
], ids=["op-row", "coeffs-row", "op-row-negative", "coeffs-row-negative"])
def test_multi_index_with_empty_entry_is_parse_error(tmp_path, capsys, command, text, line,
                                                     multi):
    code, out, err = run_cli(capsys, [command, write(tmp_path, "bad.txt", text % multi)])
    assert (code, out) == (2, "")
    assert "parse error" in err and "bad multi-index %r" % multi in err
    assert "line %d" % line in err
    code, _, _ = run_cli(capsys, [command, write(tmp_path, "ok.txt", text % "(1,0)")])
    assert code == 0


# every manifest integer is ASCII digits with an optional leading '-': int()
# alone would also read '+1' and '1_0'
_INT_OP_ROW = "[ring]\nx = x1, x2\n[op]\n1 ; %s\n[vec]\nx1^12\n"
_INT_QDIV = ("[ring]\nx = x1\ny = y1\n[target]\ny1^2\n[divisors]\ny1 ; y1\n"
             "[params]\npower = %s\n")
_INT_OPERATOR = ("[operator]\n%s\nj = 1\nk = 1\n[stratum]\nn = 2\n%s\np = 1\nU = true\n"
                 "%s = z1 - 1\nwitness = 0, 0, 1\n[coeffs]\n%s ; 1 ; (0,0) ; () ; 1\n")
_INT_GB = "[ring]\nx = x1, x2\norder = block:%s\n[polys]\nx1 - x2\n"


@pytest.mark.parametrize("command, text, good, bad, message", [
    ("apply", _INT_OP_ROW, ("(10,0) ; 1",), ("(1_0,0) ; 1",),
     "line 4: bad multi-index '(1_0,0)'"),
    ("apply", _INT_OP_ROW, ("(1,0) ; 1",), ("(+1,0) ; 1",), "line 4: bad multi-index '(+1,0)'"),
    ("apply", _INT_OP_ROW, ("(1,0) ; 1",), ("(1,0) ; +1",), "line 4: bad component"),
    ("qdiv", _INT_QDIV, ("10",), ("+1_0",), "line 9: bad integer for power"),
    ("mclosure", _INT_OPERATOR, ("n = 2", "m = 0", "annz 1", "1"),
     ("n = +2", "m = 0", "annz 1", "1"), "line 2: bad integer for n"),
    ("mclosure", _INT_OPERATOR, ("n = 2", "m = 0", "annz 1", "1"),
     ("n = 2", "m = 0_0", "annz 1", "1"), "line 7: bad integer for m"),
    ("mclosure", _INT_OPERATOR, ("n = 2", "m = 0", "annz 1", "1"),
     ("n = 2", "m = 0", "annz +1", "1"), "line 10: bad annihilator key 'annz +1'"),
    ("mclosure", _INT_OPERATOR, ("n = 2", "m = 0", "annz 1", "1"),
     ("n = 2", "m = 0", "annz 1", "+1"), "line 13: bad index in coefficient row"),
    ("gb", _INT_GB, ("1",), ("1_0",), "line 3: bad block order split"),
], ids=["multi-underscore", "multi-plus", "op-component", "qdiv-power", "operator-n",
        "stratum-m", "annz-index", "coeffs-lam", "block-split"])
def test_manifest_integers_are_plain_digits(tmp_path, capsys, command, text, good, bad,
                                            message):
    code, out, err = run_cli(capsys, [command, write(tmp_path, "bad.txt", text % bad)])
    assert (code, out, err) == (2, "", "parse error: %s\n" % message)
    code, _, _ = run_cli(capsys, [command, write(tmp_path, "ok.txt", text % good)])
    assert code == 0


# every keyed section reads a fixed set of keys, so a misspelled key is a
# parse error instead of a silently ignored line
_KEY_QDIV = ("[ring]\nx = x1\ny = y1\n[target]\ny1^2\n[divisors]\ny1 ; y1\n"
             "[params]\n%s = 2\n")
_KEY_GB = "[ring]\nx = x1, x2\n%s = lex\n[polys]\nx1 - x2^2\n"
_KEY_VANISH = ("[stratum]\nn = 1\nm = 1\np = 0\nU = x1 > 0\nanny 1 = y1 - x1^2\n"
               "%s = 1, 1\n")


@pytest.mark.parametrize("command, text, good, bad, message", [
    ("qdiv", _KEY_QDIV, "power", "powr", "line 9: unknown key 'powr'"),
    ("gb", _KEY_GB, "order", "ordr", "line 3: unknown key 'ordr'"),
    ("vanish", _KEY_VANISH, "witness", "witnes", "line 7: unknown key 'witnes'"),
    ("vanish", _KEY_VANISH, "witness", "", "line 7: unknown key ''"),
], ids=["params-power", "ring-order", "stratum-witness", "stratum-empty"])
def test_misspelled_keys_are_parse_errors(tmp_path, capsys, command, text, good, bad,
                                          message):
    code, out, err = run_cli(capsys, [command, write(tmp_path, "bad.txt", text % bad)])
    assert (code, out, err) == (2, "", "parse error: %s\n" % message)
    code, _, _ = run_cli(capsys, [command, write(tmp_path, "ok.txt", text % good)])
    assert code == 0


# every manifest rational is an integer or num/den, read like the integers:
# Fraction() alone would also read '1_0', '1e3', '+1/2' and '0.5'
_RAT_OPERATOR = ("[operator]\nn = 2\nj = 1\nk = 1\n[stratum]\nn = 2\nm = 0\np = 1\n"
                 "U = true\nannz 1 = z1 - 1\nwitness = %s\nT = %s\n[coeffs]\n"
                 "1 ; 1 ; (0,0) ; () ; %s\n")
_RAT_GOOD = ("-1/2, 3, 1", "1,0 ; 0,-2/3", "10")


@pytest.mark.parametrize("bad, message", [
    (("-1/2, 3, 1", "1,0 ; 0,-2/3", "1_0"), "line 14: bad rational '1_0'"),
    (("-1/2, 3, 1", "1,0 ; 0,-2/3", "1/0"), "line 14: bad rational '1/0'"),
    (("-1/2, +3, 1", "1,0 ; 0,-2/3", "10"), "line 11: bad rational ' +3'"),
    (("-1/2, 3, 0.5", "1,0 ; 0,-2/3", "10"), "line 11: bad rational ' 0.5'"),
    (("-1/2, 3, 1", "1e3,0 ; 0,-2/3", "10"), "line 12: bad rational '1e3'"),
    (("-1/2, 3, 1", "1,0 ; 0,abc", "10"), "line 12: bad rational 'abc'"),
], ids=["omega-underscore", "omega-zero-den", "witness-plus", "witness-decimal",
        "t-exponent", "t-word"])
def test_manifest_rationals_are_plain_fractions(tmp_path, capsys, bad, message):
    path = write(tmp_path, "bad.txt", _RAT_OPERATOR % bad)
    code, out, err = run_cli(capsys, ["mclosure", path])
    assert (code, out, err) == (2, "", "parse error: %s\n" % message)
    path = write(tmp_path, "ok.txt", _RAT_OPERATOR % _RAT_GOOD)
    code, _, _ = run_cli(capsys, ["mclosure", path])
    assert code == 0


@pytest.mark.parametrize("width", ["1_0", "1e3", "+1/2", "0.5", "\u0661"])
def test_width_is_a_plain_fraction(tmp_path, capsys, width):
    # --width is read like the manifest rationals
    path = write(tmp_path, "roots.txt", "[ring]\nx = x1\n[poly]\nx1^2 - 2\n")
    code, out, err = run_cli(capsys, ["roots", path, "--width", width])
    assert (code, out, err) == (2, "", "parse error: bad --width %r\n" % width)
    code, out, _ = run_cli(capsys, ["roots", path, "--width", "1/2"])
    assert code == 0 and len(out.splitlines()) == 2


def test_zero_denominator_in_a_polynomial_is_parse_error(tmp_path, capsys):
    path = write(tmp_path, "roots.txt", "[ring]\nx = x1\n[poly]\nx1 - 1/0\n")
    code, out, err = run_cli(capsys, ["roots", path])
    assert (code, out, err) == (2, "", "parse error: line 4: bad rational constant\n")


@pytest.mark.parametrize("command, text, good, line", [
    ("eliminate", "[ring]\nx = x1, x2\n[polys]\nx1 - x2\n[drop]\nx1, %s\n", "x2", 6),
    ("qdiv", "[ring]\nx = x1\ny = y1\n[target]\ny1^2\n[divisors]\ny1 ; %s\n", "y1", 7),
], ids=["drop", "divisors"])
def test_unknown_variable_name_is_parse_error(tmp_path, capsys, command, text, good, line):
    # as inside a polynomial: exit 2 with the line, not a domain error
    code, out, err = run_cli(capsys, [command, write(tmp_path, "bad.txt", text % "w1")])
    assert (code, out, err) == (2, "", "parse error: line %d: unknown variable 'w1'\n" % line)
    code, _, _ = run_cli(capsys, [command, write(tmp_path, "ok.txt", text % good)])
    assert code == 0


_NON_ASCII = b"# caf\xc3\xa9\n[ring]\nx = x1, x2\norder = lex\n[polys]\nx1 - x2\nx2 - 1\n"


def test_non_ascii_manifest_is_a_read_error(tmp_path, capsys, monkeypatch):
    # a file and stdin are both read as ASCII; a byte outside it exits 2
    # before anything is parsed
    path = tmp_path / "gb.txt"
    path.write_bytes(_NON_ASCII)
    for argv, data in ((["gb", str(path)], b""), (["gb", "-"], _NON_ASCII)):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("cannot read manifest: 'ascii' codec can't decode byte 0xc3")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(_NON_ASCII[8:])))
    assert run_cli(capsys, ["gb", "-"]) == (0, "x1 - 1\nx2 - 1\n", "")


# a [coeffs] component outside 1..j fails at its line while the manifest is
# read, as an [op] component does, not when main_mclosure reaches the stratum
@pytest.mark.parametrize("comp", ["0", "2"])
def test_coeffs_component_out_of_range_is_parse_error(tmp_path, capsys, monkeypatch, comp):
    import pathlib
    from diffmod import pipeline
    monkeypatch.setattr(pipeline, "complexify", None)
    root = pathlib.Path(__file__).resolve().parent.parent / "manifests"
    lines = (root / "level_set_positive_indicator.txt").read_text().splitlines()
    row = max(i for i, l in enumerate(lines) if l.startswith("1 ; 1 ;"))
    lines[row] = "1 ; %s ;" % comp + lines[row][len("1 ; 1 ;"):]
    path = write(tmp_path, "op.txt", "\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["mclosure", path])
    assert (code, out, err) == (
        2, "", "parse error: line %d: component index out of range\n" % (row + 1))


VANISH_NEGATIVE = """
[stratum]
n = 1
m = 2
p = 0
U = -1*x1 - 1 > 0
anny 1 = y1
anny 2 = y2
witness = -2, 0, 0
T = 0,0,1 ; 1,0,0 ; 0,1,0

[stratum]
n = 0
m = 3
p = 0
anny 1 = y1
anny 2 = y2
anny 3 = y3 + 1
witness = 0, 0, -1
"""


def test_vanish_negative_level(tmp_path, capsys):
    path = write(tmp_path, "vanish.txt", VANISH_NEGATIVE)
    code, out, _ = run_cli(capsys, ["vanish", path])
    assert code == 0
    assert sorted(out.splitlines()) == ["x1", "x2"]


MCLOSURE_RAY = """
[operator]
n = 3
j = 1
k = 1

[stratum]
n = 1
m = 2
p = 1
U = -1*x1 - 1 > 0
anny 1 = y1
anny 2 = y2
annz 1 = z1 - 1
witness = -2, 0, 0, 1
T = 0,0,1 ; 1,0,0 ; 0,1,0
[coeffs]
1 ; 1 ; (0) ; (0,0) ; 1

[stratum]
n = 0
m = 3
p = 1
anny 1 = y1
anny 2 = y2
anny 3 = y3 + 1
annz 1 = z1 - 1
witness = 0, 0, -1, 1
[coeffs]
1 ; 1 ; () ; (0,0,0) ; 1
"""


def test_mclosure_indicator_ray(tmp_path, capsys):
    path = write(tmp_path, "op.txt", MCLOSURE_RAY)
    code, out, _ = run_cli(capsys, ["mclosure", path, "--check", "--log"])
    assert code == 0
    payload = [l for l in out.splitlines() if not l.startswith("#")]
    assert sorted(payload) == ["x1", "x2"]
    logs = [l for l in out.splitlines() if l.startswith("#")]
    assert any("stage1_l" in l for l in logs)


def test_intersect_cli(tmp_path, capsys):
    text = """
[ring]
x = x1, x2
[left]
x1
[right]
x2
"""
    path = write(tmp_path, "inter.txt", text)
    code, out, _ = run_cli(capsys, ["intersect", path])
    assert code == 0
    assert out.strip() == "x1*x2"


def test_saturate_cli(tmp_path, capsys):
    text = """
[ring]
x = x1, x2
[polys]
x1*x2
[by]
x1
"""
    path = write(tmp_path, "sat.txt", text)
    code, out, _ = run_cli(capsys, ["saturate", path])
    assert code == 0
    assert out.strip() == "x2"


def test_eliminate_cli(tmp_path, capsys):
    text = """
[ring]
x = t, x
[polys]
t - x^2
t
[drop]
t
"""
    path = write(tmp_path, "elim.txt", text)
    code, out, _ = run_cli(capsys, ["eliminate", path])
    assert code == 0
    assert out.strip() == "x^2"


@pytest.mark.parametrize("command, text, line", [
    ("intersect", "[ring]\nx = x1\n[left]\n[right]\nx1\n", 3),
    ("saturate", "[ring]\nx = x1\n[polys]\n[by]\nx1\n", 3),
    ("eliminate", "[ring]\nx = t, x\n[polys]\n[drop]\nt\n", 3),
    ("syz", "[ring]\nx = x1\n[polys]\n", 3),
], ids=["intersect", "saturate", "eliminate", "syz"])
def test_empty_generator_section_is_parse_error(tmp_path, capsys, command, text, line):
    path = write(tmp_path, "empty.txt", text)
    code, _, err = run_cli(capsys, [command, path])
    assert code == 2
    assert "parse error" in err and "lists no generators" in err
    assert "line %d" % line in err


_ONE_LINE_SECTIONS = [
    ("nf", "[ring]\nx = x1\n[polys]\nx1\n[target]\n%s", 5),
    ("saturate", "[ring]\nx = x1\n[polys]\nx1\n[by]\n%s", 5),
    ("eliminate", "[ring]\nx = x1, x2\n[polys]\nx1 - x2\n[drop]\n%s", 5),
    ("critical-l", "[ring]\nx = x1\n[amatrix]\nx1\n[bmatrix]\n1\n[delta]\n%s", 7),
    ("roots", "[ring]\nx = x1\n[poly]\n%s", 3),
    ("qdiv", "[ring]\nx = x1\ny = y1\n[target]\n%s[divisors]\ny1 ; y1\n", 4),
    ("apply", "[ring]\nx = x1\n[op]\n1 ; (0) ; 1\n[vec]\n%s", 5),
]


@pytest.mark.parametrize("lines", ["", "x1\nx1\n"], ids=["empty", "two-lines"])
@pytest.mark.parametrize("command, template, line", _ONE_LINE_SECTIONS,
                         ids=[c for c, _, _ in _ONE_LINE_SECTIONS])
def test_one_line_section_is_parse_error(tmp_path, capsys, command, template, line, lines):
    path = write(tmp_path, "one.txt", template % lines)
    code, _, err = run_cli(capsys, [command, path])
    assert code == 2
    assert "parse error" in err and "must hold exactly one line" in err
    assert "line %d" % line in err


def test_qdiv_bad_power_is_parse_error(tmp_path, capsys):
    text = "[ring]\nx = x1\ny = y1\n[target]\ny1^2\n[divisors]\ny1 ; y1\n[params]\npower = two\n"
    path = write(tmp_path, "qdiv.txt", text)
    code, _, err = run_cli(capsys, ["qdiv", path])
    assert code == 2
    assert "parse error" in err and "line 9" in err


def test_critical_l_cli(tmp_path, capsys):
    text = """
[ring]
x = t
[amatrix]
t^2
[bmatrix]
1
[delta]
t
"""
    path = write(tmp_path, "crit.txt", text)
    code, out, _ = run_cli(capsys, ["critical-l", path])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l0 = 2"
    assert lines[1] == "1"


# an input with two faults reports the one checked first: an empty B, then
# unequal row counts, then a ragged A, then a ragged B
@pytest.mark.parametrize("amatrix, bmatrix, message", [
    ("x\ny ; x", "1\n1", "ragged matrix"),
    ("x ; y\ny", "1\n1", "ragged matrix"),
    ("x\ny", "1 ; y\n1", "ragged matrix"),
    ("x\ny ; x", "", "empty B matrix"),
    ("x\ny ; x", "1", "A/B row mismatch"),
    ("x", "1 ; y\n1", "A/B row mismatch"),
], ids=["short-first-A-row", "short-last-A-row", "ragged-B", "ragged-A-empty-B",
        "ragged-A-row-mismatch", "ragged-B-row-mismatch"])
def test_critical_l_rejects_ragged_matrices(tmp_path, capsys, amatrix, bmatrix, message):
    text = "[ring]\nx = x, y\n[amatrix]\n%s\n[bmatrix]\n%s\n[delta]\nx\n" % (amatrix, bmatrix)
    path = write(tmp_path, "ragged.txt", text)
    code, out, err = run_cli(capsys, ["critical-l", path])
    assert (code, out, err) == (3, "", "error: %s\n" % message)


# the checks run in the order: an empty matrix, a ragged one, a wrong rhs length
@pytest.mark.parametrize("matrix, rhs, message", [
    ("", "x", "empty system"),
    ("x ; y\nx", "1\n1", "ragged matrix"),
    ("x ; y", "1\n1", "rhs length mismatch"),
    ("", "", "empty system"),
    ("x ; y\nx", "1", "ragged matrix"),
    ("x ; y", "", "rhs length mismatch"),
], ids=["empty", "ragged", "rhs-length", "empty-matrix-and-rhs", "ragged-rhs-length",
        "empty-rhs"])
def test_solve_rejects_malformed_systems(tmp_path, capsys, matrix, rhs, message):
    text = "[ring]\nx = x, y\n[matrix]\n%s\n[rhs]\n%s\n" % (matrix, rhs)
    path = write(tmp_path, "system.txt", text)
    code, out, err = run_cli(capsys, ["solve", path])
    assert (code, out, err) == (3, "", "error: %s\n" % message)


def test_outputs_reparse_through_consuming_stage(tmp_path, capsys):
    from diffmod.poly import Polynomial, PolyVec, Ring
    ring = Ring(("x1", "x2"), "xx")
    # syzygy output lines are vectors over the same ring
    text = "[ring]\nx = x1, x2\n[polys]\nx1\nx2\n"
    path = write(tmp_path, "syz.txt", text)
    _, out, _ = run_cli(capsys, ["syz", path])
    for line in out.splitlines():
        vec = PolyVec([Polynomial.parse(ring, part) for part in line.split(";")])
        assert len(vec) == 2
    # nf output is a single polynomial
    text = "[ring]\nx = x1, x2\n[polys]\nx1 - x2\n[target]\nx1^3\n"
    path = write(tmp_path, "nf.txt", text)
    _, out, _ = run_cli(capsys, ["nf", path])
    Polynomial.parse(ring, out.strip())


def test_shipped_manifests(capsys):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "manifests"
    code, out, _ = run_cli(capsys, ["vanish", str(root / "level_set_negative_vanish.txt")])
    assert code == 0 and sorted(out.split()) == ["x1", "x2"]
    code, out, _ = run_cli(capsys, ["vanish", str(root / "level_set_positive_vanish.txt")])
    assert code == 0 and out.strip() == "x2^2*x3 - x1^2"
    code, out, _ = run_cli(capsys, ["mclosure", str(root / "level_set_negative_indicator.txt")])
    assert code == 0 and sorted(out.split()) == ["x1", "x2"]


@pytest.mark.parametrize("command, manifest, golden", [
    ("mclosure", "level_set_negative_indicator.txt", "mclosure_log_negative_indicator.txt"),
    ("mclosure", "level_set_positive_indicator.txt", "mclosure_log_positive_indicator.txt"),
    ("vanish", "level_set_negative_vanish.txt", "vanish_negative.txt"),
    ("vanish", "level_set_positive_vanish.txt", "vanish_positive.txt"),
])
def test_shipped_manifests_match_golden_output(capsys, command, manifest, golden):
    # the ledger and the bases are pinned byte for byte; without --log the
    # output is the golden text less its ledger lines
    import pathlib
    root = pathlib.Path(__file__).resolve().parent
    path = str(root.parent / "manifests" / manifest)
    want = (root / "golden" / golden).read_text()
    code, out, _ = run_cli(capsys, [command, path, "--log"])
    assert code == 0 and out == want
    code, out, _ = run_cli(capsys, [command, path])
    assert code == 0 and out == "".join(line for line in want.splitlines(True)
                                        if not line.startswith("# "))


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "[ring]\nx = x1\n[polys]\nx1 +* 2\n")
    code, out, err = run_cli(capsys, ["gb", path])
    assert code == 2
    assert "parse error" in err


def test_unknown_section_rejected(tmp_path, capsys):
    text = "[ring]\nx = x1\n[polys]\nx1\n[mystery]\nstuff\n"
    path = write(tmp_path, "bad.txt", text)
    code, out, err = run_cli(capsys, ["gb", path])
    assert code == 2
    assert "mystery" in err and "line 5" in err


def test_domain_error_exit_code(tmp_path, capsys):
    text = """
[ring]
x = x1
[polys]
x1
[by]
0
"""
    path = write(tmp_path, "sat.txt", text)
    code, out, err = run_cli(capsys, ["saturate", path])
    assert code == 3


_GB_LEX = "[ring]\nx = x1, x2\norder = lex\n[polys]\n%s\n"


@pytest.mark.parametrize("command, text", [
    ("gb", _GB_LEX % "x1^5000000000 - 1"),
    ("gb", _GB_LEX % "x1^2147483648 - x2\nx1*x2 - 1"),
    ("gb", _GB_LEX % "x1 - x2^2\nx1*x2^2147483646"),
    # the residue loop of critical_l shifts a term over the limit again before
    # any decode: only the check on _nf's leading term stops it carrying
    ("critical-l", "[ring]\nx = x1, x2\n[amatrix]\nx1^2147483647*x2\n[bmatrix]\nx1\n"
                   "[delta]\nx1^1073741824\n"),
], ids=["input-carries", "input-runs-on", "product-reaches", "residue-shifted-twice"])
def test_exponent_at_the_limit_is_a_domain_error(tmp_path, capsys, command, text):
    # the Groebner core packs each exponent in 31 bits: one at 2^31 in the
    # input, or reached by a product while reducing, exits 3 instead of
    # carrying into the next exponent or running on
    path = write(tmp_path, "in.txt", text)
    code, out, err = within(5, lambda: run_cli(capsys, [command, path]))
    assert (code, out) == (3, "")
    assert err == "error: exponent at or over the limit 2^31 = 2147483648\n"


def test_exponent_just_under_the_limit_computes(tmp_path, capsys):
    path = write(tmp_path, "gb.txt", "[ring]\nx = x1, x2\n[polys]\nx1^2147483647 - 1\n")
    assert run_cli(capsys, ["gb", path]) == (0, "x1^2147483647 - 1\n", "")


_OPERATOR_WITH_MAP = """
[operator]
n = 1
j = 1
k = 1
[stratum]
n = 1
m = 0
p = 1
annz 1 = z1 - 1
witness = 0, 1
T = %s
[coeffs]
1 ; 1 ; (0) ; () ; 1
"""

_STRATUM_WITH_MAP = """
[stratum]
n = 1
m = 0
p = 1
annz 1 = z1 - 1
witness = 0, 1
T = %s
"""


@pytest.mark.parametrize("command, text, code, message", [
    ("mclosure", _OPERATOR_WITH_MAP % "0", 3, "T is singular"),
    ("vanish", _STRATUM_WITH_MAP % "0,0 ; 0,0", 3, "T is singular"),
    ("mclosure", _OPERATOR_WITH_MAP % "1,0 ; 0,1", 2, "T has wrong shape"),
    ("vanish", _STRATUM_WITH_MAP % "1", 2, "T has wrong shape"),
], ids=["mclosure-singular", "vanish-singular", "mclosure-shape", "vanish-shape"])
def test_bad_coordinate_map_is_rejected_at_parse_time(tmp_path, capsys, monkeypatch,
                                                      command, text, code, message):
    # both commands check T by one rule before any stratum is computed
    from diffmod import pipeline, vanishing
    for module in (pipeline, vanishing):
        monkeypatch.setattr(module, "complexify", None)
    path = write(tmp_path, "map.txt", text)
    got, out, err = run_cli(capsys, [command, path])
    assert (got, out) == (code, "")
    assert message in err


def test_unsupported_exit_code(tmp_path, capsys):
    text = """
[stratum]
n = 1
m = 2
p = 0
anny 1 = y1^2 - x1
anny 2 = y2^2 - x1
witness = 1, 1, 1
"""
    path = write(tmp_path, "vanish.txt", text)
    code, out, err = run_cli(capsys, ["vanish", path])
    assert code == 4
    assert "unsupported" in err


def test_mclosure_check_certifies_the_printed_generators(tmp_path, capsys, monkeypatch):
    # row (1,0;1) on the 2-D sheets of the positive level set: the module is
    # (f^3); a final basis that prints f^2 instead must fail --check.  The
    # final groebner() of main_mclosure is its only one over the ambient
    # ring, as every stratum ring has a z-block
    import pathlib
    from diffmod import groebner
    from diffmod.poly import Polynomial, Ring

    root = pathlib.Path(__file__).resolve().parent.parent / "manifests"
    text = (root / "level_set_positive_indicator.txt").read_text()
    path = write(tmp_path, "op.txt", text.replace(
        "1 ; 1 ; (0,0) ; (0) ; 1", "1 ; 1 ; (1,0) ; (1) ; 1"))
    inner = groebner.SubmoduleBasis.groebner

    def drop_a_power(basis):
        gb = inner(basis)
        if basis.ring != Ring.make(nx=3):
            return gb
        f = Polynomial.parse(basis.ring, "x2^2*x3 - x1^2")
        assert [g[0] for g in gb.gens] == [f ** 3]
        return groebner.SubmoduleBasis(basis.ring, 1, [f ** 2])

    monkeypatch.setattr(groebner.SubmoduleBasis, "groebner", drop_a_power)
    code, _, err = run_cli(capsys, ["mclosure", path, "--check"])
    assert code == 3
    assert "soundness certificate failed" in err
    code, out, _ = run_cli(capsys, ["mclosure", path])
    assert code == 0
    assert out.splitlines() == ["x2^4*x3^2 - 2*x1^2*x2^2*x3 + x1^4"]
