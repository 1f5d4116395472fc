"""The command line interface, exercised through main(argv)."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import gasket
from gasket import cli
from gasket.classify import printed_form, reduce_to_ground
from gasket.cli import EXIT_BROKEN_PIPE, main
from gasket.core import W_STANDARD, canon
from gasket.group import ALL_LETTERS, act, act_run, letter
from gasket.packing import (EnumerationBudget, Window, generate_packing,
                            generate_superpacking, locate_in_unit_square,
                            translate_row)
from gasket.serialize import matrix_to_json, scalar_to_str


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_quadruple(capsys):
    code, out, _ = run(capsys, "check", "-1", "2", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert data["defect"] == "0"
    assert data["valid"] is True
    assert data["divisor"] == 1
    assert data["orientation"] == 1
    assert data["root_quadruple"] == ["-1", "2", "2", "3"]


def test_check_invalid_quadruple(capsys):
    code, out, _ = run(capsys, "check", "-6", "10", "11", "14")
    assert code == 0
    data = json.loads(out)
    assert data["defect"] == "-65"
    assert data["valid"] is False


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "15", "2", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["ground"]) == ["0", "0", "1", "1"]
    sizes = [int(s["size"]) for s in data["steps"]]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    # The negatively oriented copy takes the same letters and sizes, and
    # each step's quadruple is negated.
    code, out, _ = run(capsys, "reduce", "--", "-15", "-2", "-2", "-3")
    assert code == 0
    neg = json.loads(out)
    assert neg["word"] == data["word"]
    assert sorted(neg["ground"]) == ["-1", "-1", "0", "0"]
    assert [(s["letter"], s["size"]) for s in neg["steps"]] == \
        [(s["letter"], s["size"]) for s in data["steps"]]
    assert [[scalar_to_str(-int(x)) for x in s["quadruple"]]
            for s in neg["steps"]] == \
        [s["quadruple"] for s in data["steps"]]


def _reference_reduce_output(q):
    """json.dumps(..., indent=2) of the whole reduce document: the text
    that cmd_reduce writes a step at a time."""
    word, ground, trace = reduce_to_ground(q, return_trace=True)
    out = {"word": word.text,
           "ground": [scalar_to_str(x) for x in ground],
           "steps": [{"letter": l.text,
                      "quadruple": [scalar_to_str(x) for x in v],
                      "size": scalar_to_str(s)} for l, v, s in trace]}
    return json.dumps(out, indent=2) + "\n"


@st.composite
def _parabolic_words(draw):
    """Applied-order letter texts: a few random letters, a run (x_i x_j)^k
    of one kind, a few random letters."""
    extra = st.lists(st.sampled_from([l.text for l in ALL_LETTERS]),
                     max_size=3)
    kind = draw(st.sampled_from("st"))
    i, j = draw(st.permutations("1234"))[:2]
    k = draw(st.integers(0, 60))
    return tuple(draw(extra)) + (kind + i, kind + j) * k + tuple(draw(extra))


@settings(max_examples=40, deadline=None)
@given(root=st.sampled_from(((0, 0, 1, 1), (-1, 2, 2, 3), (-2, 3, 6, 7),
                             (-6, 11, 14, 15))),
       word=_parabolic_words(), sign=st.sampled_from((1, -1)),
       scale=st.sampled_from((1, Fraction(1, 3))))
@example(root=(0, 0, 1, 1), word=(), sign=1, scale=1)
@example(root=(-2, 3, 6, 7), word=("t1", "s3") + ("s2", "s4") * 5, sign=-1,
         scale=Fraction(1, 3))
def test_reduce_output_matches_json_dumps(root, word, sign, scale):
    q = tuple(canon(sign * scale * x) for x in root)
    for text in word:
        q = act(letter(text), q)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reduce", "--"] + [scalar_to_str(x) for x in q])
    assert code == 0
    assert out.getvalue() == _reference_reduce_output(q)
    # Ground position (two zeros) prints an empty trace.
    assert ('"steps": []' in out.getvalue()) == (q.count(0) == 2)


def test_root(capsys):
    code, out, _ = run(capsys, "root", "86", "11", "14", "15")
    assert code == 0
    assert json.loads(out)["root_quadruple"] == ["-6", "11", "14", "15"]


def test_classify(capsys):
    m = [[0, 0, 1], [0, 0, -1], [1, 1, 0], [1, -1, 0]]
    code, out, _ = run(capsys, "classify", "--matrix", json.dumps(m))
    assert code == 0
    data = json.loads(out)
    assert data["label"]["family"] == "A"
    assert (data["label"]["m"], data["label"]["n"], data["label"]["g"]) == \
        (1, 0, 1)
    assert data["integrality"]["status"] == "super_integral"


def test_census_totals(capsys):
    code, out, _ = run(capsys, "census")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g1", "g2", "g3", "g4", "count", "representatives"]
    body, total = rows[1:-1], rows[-1]
    assert len(body) == 11
    assert sum(int(r[4]) for r in body) == 672
    assert total[4] == "672" and total[5] == "total"


def test_complete(capsys):
    circles = [
        {"bbar": "1", "b": "-1", "bx": "0", "by": "0"},
        {"bbar": "0", "b": "2", "bx": "1", "by": "0"},
        {"bbar": "0", "b": "2", "bx": "-1", "by": "0"},
    ]
    code, out, _ = run(capsys, "complete", "--circles", json.dumps(circles))
    assert code == 0
    data = json.loads(out)
    assert data["strongly_integral_input"] is True
    fourth = sorted(tuple(m[3]) for m in data["completions"])
    assert fourth == [("1", "3", "0", "-2"), ("1", "3", "0", "2")]


def test_generate_json_lines(capsys):
    code, out, _ = run(capsys, "generate", "--max-curvature", "6",
                       "--window", "0,1,0,1")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 24
    for obj in lines:
        assert set(obj) == {"bbar", "b", "bx", "by", "depth", "witness"}
    # The line y = -1 misses the window; the other base rows touch it.
    base = {("2", "0", "0", "1"),
            ("0", "1", "1", "0"), ("0", "1", "-1", "0")}
    got = {(o["bbar"], o["b"], o["bx"], o["by"]) for o in lines
           if o["depth"] == 0 and o["witness"] == ""}
    assert base <= got


def test_generate_unbounded_budget_fails(capsys):
    code, _, err = run(capsys, "generate", "--max-curvature", "6")
    assert code == 1
    assert "error:" in err


def test_render_deterministic_and_file_output(tmp_path, capsys):
    argv = ("render", "--max-curvature", "20", "--window", "0,1,0,1",
            "--mod", "2", "--residue", "1")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("<svg ")
    target = tmp_path / "out.svg"
    code3, out3, _ = run(capsys, *argv, "--out", str(target))
    assert code3 == 0 and out3 == ""
    assert target.read_text() == out1


def test_unwritable_output_path_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run(capsys, "render", "--window", "0,1,0,1",
                         "--max-curvature", "5", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_locate(capsys):
    code, out, _ = run(capsys, "locate", "-6", "11", "14", "15")
    assert code == 0
    data = json.loads(out)
    assert data["largest_circle_center"] == ["1/3", "1/2"]


def test_verify_group_suite(capsys):
    code, out, _ = run(capsys, "verify", "group", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["check", "1", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    real_build = cli.build_parser

    def counting_build():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["check", "1", "2"])
        assert exc.value.code == 2
        assert "usage: gasket" in capsys.readouterr().err
        code, out, _ = run(capsys, "root", "86", "11", "14", "15")
        assert code == 0
        assert json.loads(out)["root_quadruple"] == ["-6", "11", "14", "15"]
        code, out, _ = run(capsys, "check", "-1", "2", "2", "3")
        assert code == 0 and json.loads(out)["valid"] is True
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_check_quadruple_with_huge_curvatures(capsys):
    # A parabolic run of 10^40 letters; the stepwise greedy never finished.
    n = 10 ** 40
    code, out, _ = run(capsys, "check", "0", "1", str(n * n), str((n + 1) ** 2))
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True and data["divisor"] == 1
    assert data["root_quadruple"] == ["0", "0", "1", "1"]


def test_scalar_to_str_builds_no_fraction(monkeypatch):
    values = (0, -12, 10 ** 30, Fraction(-7, 3))
    original = vars(Fraction)["__new__"]
    built = []

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert [scalar_to_str(x) for x in values] == \
        ["0", "-12", str(10 ** 30), "-7/3"]
    assert built == []


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "reduce", "1", "2", "3", "4")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "complete", "--circles", "not json")
    assert code == 1 and "error:" in err
    # Rationals are printed as the CLI reads them, not as Fraction(1, 2).
    code, out, err = run(capsys, "root", "1/2", "1/2", "2", "2")
    assert code == 1 and out == ""
    assert err == "error: nonzero defect for (1/2, 1/2, 2, 2)\n"


def test_word_too_long_for_a_list_is_a_domain_error(capsys):
    # The reduction word of 0 1 n^2 (n+1)^2 has n letters; at n = 10^40 the
    # runs are found in O(digits), but the word cannot be written out.
    n = 10 ** 40
    q = ("0", "1", str(n * n), str((n + 1) ** 2))
    code, out, err = run(capsys, "reduce", *q)
    assert code == 1 and out == ""
    assert err == (f"error: the reduction word has {n} letters, "
                   "more than a list can hold\n")
    code, out, _ = run(capsys, "check", *q)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "root", *q)
    assert code == 0
    assert json.loads(out)["root_quadruple"] == ["0", "0", "1", "1"]
    # A printed form moved by (s1 s2)^(10^40): 2 * 10^40 letters.
    cfg = act_run(letter("s1"), letter("s2"), 2 * n,
                  printed_form("A", 1, 0, 1))
    code, out, err = run(capsys, "classify", "--matrix",
                         json.dumps(matrix_to_json(cfg)))
    assert code == 1 and out == ""
    assert err == (f"error: the reduction word has {2 * n} letters, "
                   "more than a list can hold\n")


def test_threads_flag_rejected(capsys):
    # --threads was parsed and never used; it is no longer an option.
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "check", "0", "0", "1", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: gasket" in captured.err


@pytest.mark.parametrize("argv", [
    ("classify", "--matrix", "[1,2]"),
    ("classify", "--matrix", '{"a":1}'),
    ("generate", "--base", "[1,2]", "--max-curvature", "6",
     "--window", "0,1,0,1"),
])
def test_malformed_matrix_json_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: matrix must be a JSON array of row arrays\n"


_WINDOWED = ("--max-curvature", "100", "--window", "0,1,0,1")


@pytest.mark.parametrize("argv", [
    pytest.param(("generate",) + _WINDOWED, id="generate"),
    pytest.param(("render",) + _WINDOWED, id="render"),
    # A trace of 10^4 steps, 1.57 MB.
    pytest.param(("reduce", "0", "1", str(10 ** 8), str((10 ** 4 + 1) ** 2)),
                 id="reduce"),
])
def test_closed_pipe_exits_quietly(argv):
    # The output (over 200 kB) is larger than a pipe buffer, so the writer
    # is still blocked when the reader goes away.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gasket.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gasket.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and err == ""


# W_STANDARD moved by (1/3, 1/7): a base with Fraction entries.
SHIFTED_BASE = json.dumps(matrix_to_json(
    [translate_row(r, Fraction(1, 3), Fraction(1, 7)) for r in W_STANDARD]))


# Outputs on inputs that are not integer rows or not integer windows, pinned
# by digest: a fractional base, a fractional window, labels of a fractional
# curvature, a window whose corners have different denominators, and a
# fractional bound on a base with halves, where 2 * 61/4 is not an integer.
@pytest.mark.parametrize("argv, digest", [
    (("generate", "--mode", "super", "--base", SHIFTED_BASE,
      "--window", "0,1,0,1", "--max-curvature", "60"),
     "31c9f03035c45f85e4797632c11e1b1084c61abc16a9b7c48c9538f7bb68ea45"),
    (("render", "--base", SHIFTED_BASE, "--window", "1/3,2/3,1/5,4/5",
      "--max-curvature", "60", "--depth-shade", "--labels"),
     "910020f672f73f3d25f7d6495cce0ca6ef4e7847ad96e4d27c30290f13fc3ae9"),
    (("render", "--base", '[["4","0","0","1"],["4","0","0","-1"],'
      '["0","1/2","1","0"],["0","1/2","-1","0"]]', "--window", "0,2,0,2",
      "--max-curvature", "30", "--labels", "--highlight-base"),
     "f3acafc846e9b2c6fe1a5a262ef63e8eb6c8e64ec9b0131ab19b3a378a615c41"),
    (("render", "--window=-5/2,1/2,-1/3,7/3", "--max-curvature", "50",
      "--depth-shade", "--labels"),
     "4ad0520a6c915de200c09fc547d7e51dfb0d5f9c88ce94da8f30df4583262930"),
    (("generate", "--mode", "super", "--base", '[["4","0","0","1"],'
      '["4","0","0","-1"],["0","1/2","1","0"],["0","1/2","-1","0"]]',
      "--window", "0,2,0,2", "--max-curvature", "61/4"),
     "a1bef1fb3695d984f34eb9db181904640184d0a08b0a1874d95be09292a82fbe"),
], ids=["generate-fraction-base", "render-fraction-window",
        "render-half-curvature-labels", "render-mixed-denominators",
        "generate-half-curvature-fraction-bound"])
def test_rational_inputs_match_pinned_digests(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The located (-1, 2, 2, 3) quadruple: the base of the bounded packing.
LOCATED_BASE = json.dumps(matrix_to_json(locate_in_unit_square((-1, 2, 2, 3))))


# Integer generate outputs, pinned by digest: a bounded packing of 3,329
# circles and the standard super-packing over the unit square.
@pytest.mark.parametrize("argv, digest", [
    (("generate", "--mode", "packing", "--base", LOCATED_BASE,
      "--max-curvature", "1000"),
     "db62096fc52a22087336292c69a6b9ede6f3fe44b50c101d2a603f3a1b4b930c"),
    (("generate", "--mode", "super", "--window", "0,1,0,1",
      "--max-curvature", "100"),
     "1193dd4e0150a04b2be8b18417cc66558a51c36eda383631c08d7b4ced20050b"),
], ids=["generate-packing", "generate-super"])
def test_integer_generate_matches_pinned_digests(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _reference_generate_output(gen, base, budget):
    """generate's output as json.dumps of one dict per circle."""
    return "".join(json.dumps({
        "bbar": scalar_to_str(pc.circle.cocurvature),
        "b": scalar_to_str(pc.circle.curvature),
        "bx": scalar_to_str(pc.circle.cx),
        "by": scalar_to_str(pc.circle.cy),
        "depth": pc.depth,
        "witness": pc.witness.text}) + "\n" for pc in gen(base, budget))


_UNIT = Window(0, 1, 0, 1)


@pytest.mark.parametrize("argv, gen, base, budget", [
    (("generate", "--mode", "packing", "--base", LOCATED_BASE,
      "--max-curvature", "1000"), generate_packing,
     locate_in_unit_square((-1, 2, 2, 3)), EnumerationBudget(1000)),
    (("generate", "--mode", "super", "--window", "0,1,0,1",
      "--max-curvature", "100"), generate_superpacking, W_STANDARD,
     EnumerationBudget(100, window=_UNIT)),
    (("generate", "--mode", "super", "--base", SHIFTED_BASE,
      "--window", "0,1,0,1", "--max-curvature", "60"), generate_superpacking,
     tuple(translate_row(r, Fraction(1, 3), Fraction(1, 7))
           for r in W_STANDARD), EnumerationBudget(60, window=_UNIT)),
], ids=["packing", "super", "super-fraction-base"])
def test_generate_lines_match_json_dumps(capsys, argv, gen, base, budget):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.count("\n") > 100
    assert out == _reference_generate_output(gen, base, budget)
