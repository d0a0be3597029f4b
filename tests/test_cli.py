"""The command-line front end: subcommands, exit codes, JSON mirrors."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbw import cli, criterion, rewrite
from pbw.algebra import NCPoly
from pbw.cli import main
from pbw.datumio import (
    MAX_CONDUCTOR,
    MAX_FREE_RANK,
    MAX_GROUP_ORDER,
    MAX_HEIGHT,
    MAX_MEMBER_LETTERS,
    MAX_PRIME,
    MAX_THETA,
    datum_to_dict,
    load_datum,
    save_datum,
)
from pbw.exprs import MAX_EXPR_DEGREE, MAX_EXPR_TERMS, ExprError, parse_expr
from pbw.presets import PRESET_NAMES, build_preset
from pbw.rewrite import MAX_NF_LETTERS, build_rules, reduce_bounded
from pbw.words import MAX_LYNDON_WORDS, format_word

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def taft_file(tmp_path):
    path = tmp_path / "taft3.json"
    save_datum(build_preset("taft").datum, path)
    return str(path)


@pytest.fixture
def qplane_file(tmp_path):
    path = tmp_path / "qplane.json"
    save_datum(build_preset("quantum_plane").datum, path)
    return str(path)


# a valid datum over F_7: one letter of height 3
F7_DATUM = {
    "theta": 1, "field": {"prime": 7}, "group": {"torsion": [6], "free_rank": 0},
    "g": [[1]], "chi": [[2]], "L": ["1"], "heights": {"1": 3}, "reds": {}, "redhats": {"1": []},
}


@pytest.fixture(scope="module")
def nf_files(tmp_path_factory):
    """uq_sl2 and the F_7 datum, written once for the module."""
    root = tmp_path_factory.mktemp("nf")
    save_datum(build_preset("uq_sl2").datum, root / "u.json")
    (root / "f7.json").write_text(json.dumps(F7_DATUM))
    return {"U": str(root / "u.json"), "F7": str(root / "f7.json")}


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_alone(*argv, **kwargs):
    """`python -m pbw.cli argv` in a fresh interpreter."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pbw.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path), text=True, timeout=60, **kwargs,
    )


def test_check_pass(capsys, taft_file):
    code, out, _ = run(capsys, "check", taft_file)
    assert code == 0
    assert "PASS, dim 9" in out


def test_check_fail_exit_code(capsys, tmp_path):
    d = build_preset("uq_sl2").datum
    bad = NCPoly()
    bad.add_term(((), (0,)), d.field.one())
    bad.add_term(((), (1,)), -d.field.one())
    path = tmp_path / "bad.json"
    save_datum(replace(d, reds={(1, 2): bad}), path)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "FAIL" in out


def test_check_invalid_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"theta": 1}')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "missing fields" in err

    # structurally valid file but violated constraints
    d = build_preset("taft").datum
    bad = replace(d, heights={(1,): 5})
    path2 = tmp_path / "badheights.json"
    save_datum(bad, path2)
    code, _, err = run(capsys, "check", str(path2))
    assert code == 2
    assert "height" in err


def test_check_names_a_few_missing_reds(capsys, tmp_path):
    # 64 single letters with no reds: listing all 2,016 words of C(L) made
    # a 13,547-character line
    L = [format_word((i,)) for i in range(1, MAX_THETA + 1)]
    path = tmp_path / "noreds.json"
    path.write_text(json.dumps({
        "theta": MAX_THETA, "field": {"cyclotomic": 1}, "group": {"torsion": [], "free_rank": 0},
        "g": [[]] * MAX_THETA, "chi": [[]] * MAX_THETA, "L": L,
        "heights": {u: "inf" for u in L}, "reds": {}, "redhats": {},
    }))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == "" and "Traceback" not in err
    line = next(l for l in err.splitlines() if "reds must be given for exactly C(L)" in l)
    assert len(line) < 300
    assert "missing 12, 13, 14, 15 and 2012 more" in line, line


# one-field mutations of a uq_sl2 file: (key path, replacement value)
_MALFORMED = {
    "heights_list": (("heights",), [3, 3]),
    "L_ints": (("L",), [1, 2]),
    "reds_list": (("reds",), [[]]),
    "coeff_zero_division": (("reds", "12", 0, "coeff"), "1/0"),
    "torsion_string": (("group", "torsion"), ["3"]),
    "chi_bool": (("chi",), [[True], [2]]),
}


def _mutated_uq_sl2_file(tmp_path, case, path_in_file, value):
    data = datum_to_dict(build_preset("uq_sl2").datum)
    parent = data
    for k in path_in_file[:-1]:
        parent = parent[k]
    parent[path_in_file[-1]] = value
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_check_malformed_file_exits_2_without_traceback(capsys, tmp_path, case):
    code, out, err = run(capsys, "check", _mutated_uq_sl2_file(tmp_path, case, *_MALFORMED[case]))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


# one-field mutations just past each size limit of the loader
_OVERSIZED = {
    "conductor": (("field",), {"cyclotomic": MAX_CONDUCTOR + 1}),
    "prime": (("field",), {"prime": 1_000_000_007}),  # the least prime above MAX_PRIME
    "height": (("heights", "1"), MAX_HEIGHT + 1),
    "group_order": (("group", "torsion"), [MAX_GROUP_ORDER + 1]),
    "free_rank": (("group", "free_rank"), MAX_FREE_RANK + 1),
    "member_letters": (("L", 1), "1" + "2" * MAX_MEMBER_LETTERS),
    "theta": (("theta",), MAX_THETA + 1),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_check_refuses_a_file_past_a_size_limit(capsys, tmp_path, case):
    code, out, err = run(capsys, "check", _mutated_uq_sl2_file(tmp_path, case, *_OVERSIZED[case]))
    assert code == 2
    assert err.startswith("error: ") and "above the limit" in err
    assert out == ""


def test_deeply_nested_files_exit_2_without_traceback(tmp_path):
    # an array nested 200,000 deep, and a uq_sl2 file whose coefficient
    # vector holds a list nested 990 deep; both gave a RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    data = datum_to_dict(build_preset("uq_sl2").datum)
    data["reds"]["12"] = [{"word": [], "grp": [0], "coeff": ["NESTED", "0"]}]
    nested = tmp_path / "nested_coeff.json"
    nested.write_text(json.dumps(data).replace('"NESTED"', "[" * 990 + "]" * 990))
    for path in (deep, nested):
        result = run_alone("check", str(path), capture_output=True)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_check_json_mirrors_text(capsys, taft_file):
    code, out, _ = run(capsys, "check", taft_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["dimension"] == 9
    assert payload["mode"] == "full"
    code, out, _ = run(capsys, "check", taft_file, "--mode", "reduced", "--json")
    assert json.loads(out)["mode"] == "reduced"


def test_nf(capsys, qplane_file):
    code, out, _ = run(capsys, "nf", qplane_file, "x1*x2")
    assert code == 0
    assert out.strip() == "z*x2*x1"


def test_nf_weyl(capsys, tmp_path):
    path = tmp_path / "weyl.json"
    save_datum(build_preset("weyl").datum, path)
    code, out, _ = run(capsys, "nf", str(path), "x1*x2")
    assert out.strip() == "x2*x1 + 1"


def test_nf_parse_error(capsys, qplane_file):
    code, _, err = run(capsys, "nf", qplane_file, "x1 * + x2")
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("expr,col", [("x0", 2), ("x10", 2), ("x1*x20", 5)])
def test_nf_bad_letter_is_a_parse_error(capsys, qplane_file, expr, col):
    code, out, err = run(capsys, "nf", qplane_file, expr)
    assert code == 2 and out == ""
    assert err.startswith("parse error: letters must be >= 1 in ")
    assert err.endswith(f"(line 1, column {col})\n")


@pytest.mark.parametrize("expr", [
    "(x1+x2)^16",                       # 65,536 terms, about 1 s to expand
    f"x1^{MAX_EXPR_DEGREE + 1}",
    "(x1^100)^11",                      # a word of 1,100 letters
    "g1^1000000000",
    "[(x1+x2)^8, (x1+x2)^8]",
])
def test_nf_refuses_an_expression_past_the_limits(capsys, tmp_path, expr):
    path = tmp_path / "uq.json"
    save_datum(build_preset("uq_sl2").datum, path)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "nf", str(path), expr)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "exceeds the limit" in err


def test_nf_refuses_a_rewrite_past_the_letter_limit(capsys, qplane_file):
    # inside the parse limits, but about 250 M letters of rewriting
    t0 = time.perf_counter()
    code, out, err = run(capsys, "nf", qplane_file, "x1^500*x2^500")
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and out == ""
    assert err == f"error: normal form rewrites more than {MAX_NF_LETTERS} letters\n"


NF_EXPRESSIONS = ("x2*x1", "(x1+x2+g1)^5", "(x2+g1)^4*(x1+g1)^3", "x2^3*x1^3")
# SHA-256 of the [preset, expression, exit code, stdout, stderr] runs of
# `pbw nf` below, as compact JSON.  The group generator makes terms with
# equal words tie in the rewrite order, so a rewrite kernel that changes the
# order in which their terms enter the result changes this digest.
NF_PRESET_OUTPUTS = "b63780e612941dddb6b225aad4b9936716e7d5efade18afddb46935d27ffc49e"


def test_nf_outputs_on_every_preset_match_the_recorded_digest(capsys, tmp_path):
    runs = []
    for name in PRESET_NAMES:
        path = tmp_path / f"{name}.json"
        save_datum(build_preset(name).datum, path)
        for expr in NF_EXPRESSIONS:
            runs.append([name, expr, *run(capsys, "nf", str(path), expr)])
    assert sum(code == 0 for _name, _expr, code, _out, _err in runs) > 60
    blob = json.dumps(runs, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == NF_PRESET_OUTPUTS


def b2_repro(tmp_path):
    """b2_scaffold with red_122 = -x2 x2 x1: valid, but not confluent."""
    raw = datum_to_dict(build_preset("b2_scaffold").datum)
    raw["reds"]["122"] = [{"word": ["2", "2", "1"], "grp": [0], "coeff": "-1"}]
    path = tmp_path / "b2_tampered.json"
    path.write_text(json.dumps(raw))
    return path


def test_span_reference_refuses_past_the_placement_limit(tmp_path):
    # the span reference, run over the residues of the b2 repro in the
    # check's order, decides the Jacobi residues and then refuses that of
    # leibniz(112;112<2), in both modes: the span test below its 16-letter
    # bound has 15,606,751 placements (it ran for minutes)
    from test_criterion import span_reference

    d = load_datum(b2_repro(tmp_path))
    table = criterion.bracket_table(d)
    rs = build_rules(d, table)
    for mode in ("full", "reduced"):
        t0 = time.perf_counter()
        refused = None
        for c in criterion._conditions(d, table, mode):
            if reduce_bounded(rs, c.element, c.bound).is_zero():
                continue
            try:
                span_reference(rs, c.element, c.bound)
            except ValueError as e:
                refused = f"error: {c.condition_id}: {e}\n"
                break
        assert time.perf_counter() - t0 < 5.0
        assert refused == (
            "error: leibniz(112;112<2): the span test below a bound of 16 letters needs 15606751 "
            f"placements, more than {criterion.MAX_SPAN_PLACEMENTS}\n"
        )


def test_check_decides_the_b2_repro_in_seconds(capsys, tmp_path):
    # the least failing condition in the order of the bounds, jacobi(1<112<2)
    # (5 letters), is the one FAIL; the conditions above it are not decided
    path = b2_repro(tmp_path)
    for extra in ((), ("--mode", "reduced", "--json")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", str(path), *extra)
        assert time.perf_counter() - t0 < 2.0
        assert code == 1 and err == ""
        if extra:
            payload = json.loads(out)
            assert payload["verdict"] == "fail" and payload["dimension"] == 3125
            assert [c["id"] for c in payload["conditions"] if c["status"] == "fail"] == ["jacobi(1<112<2)"]
            undecided = [c for c in payload["conditions"] if c["status"] == "not decided"]
            assert undecided and all(c["residue_terms"] is None and c["diamond"] is False for c in undecided)
        else:
            lines = out.splitlines()
            assert lines[-1] == "FAIL, dim 3125"
            failing = [line for line in lines if ": FAIL," in line]
            assert failing == ["jacobi(1<112<2): FAIL, diamond, residue terms: 4"]
            assert any(line.endswith(": not decided") for line in lines)


def test_check_refuses_a_normal_form_past_the_letter_limit(capsys, monkeypatch, tmp_path):
    # the diamond's normal form keeps the rewrite limit of pbw nf, and the
    # refusal names the least condition whose normal form was refused
    d = build_preset("uq_sl2").datum
    bad = NCPoly()
    bad.add_term(((), (0,)), d.field.one())
    bad.add_term(((), (1,)), -d.field.one())
    path = tmp_path / "bad.json"
    save_datum(replace(d, reds={(1, 2): bad}), path)
    monkeypatch.setattr(rewrite, "MAX_NF_LETTERS", 2)
    for extra in ((), ("--mode", "reduced", "--json")):
        code, out, err = run(capsys, "check", str(path), *extra)
        assert code == 2 and out == ""
        assert err == "error: leibniz(2;1<2): normal form rewrites more than 2 letters\n"


def test_check_leaves_the_conditions_above_the_least_failure_not_decided(capsys, tmp_path):
    # the order of the bounds, not of the lines: (2, 2, 2, 2) and
    # (1, 2, 2, 2) precede (1, 1, 1, 2) and (1, 1, 1, 1), so leibniz(2;1<2)
    # fails before the two conditions listed above it are decided
    d = build_preset("uq_sl2").datum
    bad = NCPoly()
    bad.add_term(((), (0,)), d.field.one())
    bad.add_term(((), (1,)), -d.field.one())
    path = tmp_path / "bad.json"
    save_datum(replace(d, reds={(1, 2): bad}), path)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert out.splitlines() == [
        "leibniz(1;1=1): not decided",
        "leibniz(1;1<2): not decided",
        "leibniz(2;2=2): pass",
        "leibniz(2;1<2): FAIL, diamond, residue terms: 1",
        "verdict: FAIL (full mode, 4 conditions)",
        "FAIL, dim 27",
    ]
    code, out, _ = run(capsys, "check", str(path), "--json")
    assert [(c["status"], c["residue_terms"], c["diamond"]) for c in json.loads(out)["conditions"]] == [
        ("not decided", None, False), ("not decided", None, False), ("pass", 0, False), ("fail", 1, True),
    ]


def test_expression_limits_admit_their_largest_values():
    d = build_preset("uq_sl2").datum
    assert len(parse_expr("(x1+x2)^7 * (x1+x2)^7", d).terms) == MAX_EXPR_TERMS
    assert parse_expr(f"x1^{MAX_EXPR_DEGREE}", d) == d.monomial([(1,)] * MAX_EXPR_DEGREE)


def test_dim_and_hilbert(capsys, taft_file, qplane_file):
    code, out, _ = run(capsys, "dim", taft_file)
    assert code == 0 and out.strip() == "9"
    code, out, _ = run(capsys, "dim", qplane_file)
    assert out.strip() == "infinite"
    code, out, _ = run(capsys, "hilbert", qplane_file, "--max-deg", "10")
    assert out.split() == [str(d + 1) for d in range(11)]


def test_hilbert_builds_no_bracket_table(capsys, monkeypatch, taft_file):
    def refuse(*_args):
        raise AssertionError("word counts read only the datum")

    monkeypatch.setattr(cli, "bracket_table", refuse)
    monkeypatch.setattr(criterion, "bracket_table", refuse)
    code, out, _ = run(capsys, "hilbert", taft_file, "--max-deg", "4")
    assert code == 0 and out.split() == ["1", "1", "1", "0", "0"]


def test_lyndon_and_shirshov(capsys):
    code, out, _ = run(capsys, "lyndon", "--theta", "2", "--max-len", "2")
    assert out.split() == ["1", "12", "2"]
    code, out, _ = run(capsys, "shirshov", "11212")
    assert out.strip() == "(112, 12)"
    code, _, err = run(capsys, "shirshov", "1")
    assert code == 2
    code, _, err = run(capsys, "lyndon", "--theta", "0", "--max-len", "2")
    assert code == 2


def test_shirshov_splits_a_long_word_at_once(capsys):
    # 100,000 letters: the split took about 40 s when each ending was
    # compared as a slice
    word = "1" + "12" * 49_999 + "2"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "shirshov", word)
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    assert out == f"(1, {word[1:]})\n"  # the ending (12)^49999 2 is Lyndon


@pytest.mark.parametrize("literal", ["1,,2", "1,x", "\u00b2", "1_0,2", "+1,2"])
def test_shirshov_refuses_a_bad_word_literal(capsys, literal):
    code, out, err = run(capsys, "shirshov", literal)
    assert (code, out, err) == (2, "", f"error: bad word literal: {literal!r}\n")


def test_lyndon_refuses_a_count_past_the_limit(capsys):
    # over two letters: 58,636 words up to length 19, 111,013 up to length 20
    assert 58_636 <= MAX_LYNDON_WORDS < 111_013
    t0 = time.perf_counter()
    code, out, err = run(capsys, "lyndon", "--theta", "2", "--max-len", "20")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_hilbert_rejects_negative_degree(capsys, qplane_file):
    code, _, err = run(capsys, "hilbert", qplane_file, "--max-deg", "-1")
    assert code == 2


def test_hilbert_refuses_a_degree_past_the_limit(capsys, qplane_file):
    code, out, err = run(capsys, "hilbert", qplane_file, "--max-deg", str(cli.MAX_HILBERT_DEGREE + 1))
    assert code == 2 and out == ""
    assert err == f"error: --max-deg must be between 0 and {cli.MAX_HILBERT_DEGREE}\n"


def test_hilbert_takes_the_largest_degree(capsys, qplane_file):
    code, out, _ = run(capsys, "hilbert", qplane_file, "--max-deg", str(cli.MAX_HILBERT_DEGREE))
    assert code == 0
    assert out.split() == [str(k + 1) for k in range(cli.MAX_HILBERT_DEGREE + 1)]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_roundtrip_checks_out(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    code, out, _ = run(capsys, "preset", name, "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(path), "--mode", "reduced")
    assert code == 0, out


def test_preset_params(capsys, tmp_path):
    path = tmp_path / "t4.json"
    code, _, _ = run(capsys, "preset", "taft", "--param", "N=4", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "dim", str(path))
    assert out.strip() == "16"
    code, _, err = run(capsys, "preset", "taft", "--param", "N=1", "-o", str(path))
    assert code == 2


def test_preset_to_an_unwritable_path_exits_2_without_traceback(capsys, tmp_path):
    # the directory does not exist: the write failed with a FileNotFoundError
    # traceback and exit 1
    path = tmp_path / "missing" / "t.json"
    code, out, err = run(capsys, "preset", "taft", "-o", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert not path.exists()


@pytest.mark.parametrize("param", ["N", "N=1/0", "N=x"])
def test_preset_refuses_a_malformed_parameter(capsys, param):
    code, out, err = run(capsys, "preset", "taft", "--param", param)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name,param", [
    ("quantum_plane", "k=1/2"), ("quantum_plane", "m=3/2"), ("taft", "N=5/2"),
    ("nichols_a1xa1", "N1=3/2"), ("nichols_a1xa1", "N2=5/2"),
])
def test_preset_refuses_a_non_integer_parameter(capsys, tmp_path, name, param):
    path = tmp_path / "out.json"
    for output in ([], ["-o", str(path)]):
        code, out, err = run(capsys, "preset", name, "--param", param, *output)
        assert code == 2 and out == ""
        assert err == f"error: parameter {param.split('=')[0]} must be an integer\n"
    assert not path.exists()


def test_preset_refuses_a_parameter_it_does_not_take(capsys):
    # weyl takes no N, so a non-integer N is refused as unknown
    code, out, err = run(capsys, "preset", "weyl", "--param", "N=5/2")
    assert code == 2 and out == ""
    assert err == "error: unknown parameters: ['N']\n"


REDUNDANT_GOLDEN = {
    "b2_scaffold": ["red_11212 is forced by the Jacobi combination (b2-11212)"],
    "lifting_a2_1a": ["red_112 is forced by the height-2 power at 1", "red_122 is forced by the height-2 power at 2"],
    "lifting_a2_2a": ["red_122 is forced by the height-2 power at 2", "redhat_12 is forced by the Jacobi combination (rank2-12)"],
    "lifting_a2_2b": ["red_122 is forced by the height-2 power at 2", "redhat_12 is forced by the Jacobi combination (rank2-12)"],
    "lifting_a2_3a": ["red_112 is forced by the height-2 power at 1", "redhat_12 is forced by the Jacobi combination (rank2-12)"],
    "lifting_a2_3b": ["red_112 is forced by the height-2 power at 1", "redhat_12 is forced by the Jacobi combination (rank2-12)"],
    "lifting_a2_4a": ["red_112 is forced by the height-2 power at 1", "red_122 is forced by the height-2 power at 2"],
    "lifting_a2_4b": ["red_112 is forced by the height-2 power at 1", "red_122 is forced by the height-2 power at 2"],
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_redundant_golden(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    save_datum(build_preset(name).datum, path)
    code, out, err = run(capsys, "redundant", str(path))
    assert code == 0 and err == ""
    assert out.splitlines() == REDUNDANT_GOLDEN.get(name, ["no redundant relations detected"])


def test_redundant(capsys, tmp_path):
    path = tmp_path / "l2b.json"
    save_datum(build_preset("lifting_a2_2b").datum, path)
    code, out, _ = run(capsys, "redundant", str(path))
    assert code == 0
    assert "red_122 is forced by the height-2 power at 2" in out
    assert "redhat_12 is forced by the Jacobi combination (rank2-12)" in out


def test_expression_grammar():
    d = build_preset("uq_sl2").datum
    x1, x2 = d.letter((1,)), d.letter((2,))
    assert parse_expr("x1*x2 - x2*x1", d) == d.mul(x1, x2) - d.mul(x2, x1)
    assert parse_expr("[x1, x2]", d) == d.graded_commutator(x1, x2)
    assert parse_expr("[x1, x2]_2", d) == d.q_commutator(x1, x2, d.field.root(2))
    assert parse_expr("x1^3", d) == reduce(d.mul, [x1, x1, x1])
    assert parse_expr("g1^2", d) == d.group_like((2,))
    assert parse_expr("1/2 * x1", d) == x1.scale(d.field.from_rational("1/2"))
    assert parse_expr("z^2", d) == d.unit(d.field.root(2))
    assert parse_expr("(x1 + x2) * g1", d) == d.mul(x1 + x2, d.group_like((1,)))
    assert parse_expr("-x1", d) == -x1
    assert parse_expr("-2*x1", d) == x1.scale(d.field.from_rational(-2))
    assert parse_expr("x2 - -x1", d) == x2 + x1
    with pytest.raises(ExprError):
        parse_expr("x3", d)  # not a letter of L
    with pytest.raises(ExprError):
        parse_expr("g2", d)  # only one group factor
    with pytest.raises(ExprError):
        parse_expr("x1 +", d)
    try:
        parse_expr("x1 *\n* x2", d)
    except ExprError as e:
        assert e.line == 2


def test_cached_parser_keeps_calls_independent(capsys, tmp_path, taft_file):
    broken = tmp_path / "broken.json"
    broken.write_text('{"theta": 1}')
    calls = [
        ("preset", "taft", "--param", "N=5"),
        ("preset", "taft"),
        ("check", str(broken)),
        ("check", taft_file),
    ]
    in_one_process = [run(capsys, *argv)[:2] for argv in calls]
    alone = [run_alone(*argv, capture_output=True) for argv in calls]
    assert in_one_process == [(p.returncode, p.stdout) for p in alone]
    assert [code for code, _ in in_one_process] == [0, 0, 2, 0]
    assert in_one_process[0] != in_one_process[1]
    assert cli._parser() is cli._parser()


def test_closed_stdout_exits_without_traceback(taft_file):
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the first write
    try:
        proc = run_alone("check", taft_file, "--json", stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == cli.BROKEN_PIPE_EXIT


class _ClosedAfterOneLine(io.StringIO):
    """A stdout whose reader stops after the first line; like the StringIO
    of contextlib.redirect_stdout it has no file descriptor."""

    def write(self, s):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(s)


def test_entry_handles_a_closed_stdout_without_a_descriptor(capsys, monkeypatch, taft_file):
    monkeypatch.setattr(sys, "argv", ["pbw", "check", taft_file])
    expected = run(capsys, "check", taft_file)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.entry() == 0
    assert out.getvalue() == expected[1]
    closed = _ClosedAfterOneLine()
    with contextlib.redirect_stdout(closed):
        assert cli.entry() == cli.BROKEN_PIPE_EXIT
    assert closed.getvalue() == expected[1].splitlines(keepends=True)[0]
    assert capsys.readouterr() == ("", "")


# each gave a traceback and exit 1: a ZeroDivisionError, three RecursionErrors
# and a TypeError (build_preset's own `name` argument)
@pytest.mark.parametrize("argv,prefix", [
    (("nf", "F7", "1/7*x1"), "parse error: denominator divisible by 7 (line 1, column 1)"),
    (("nf", "U", "(" * 300 + "x1" + ")" * 300), "parse error: the expression is nested too deeply"),
    (("nf", "U", "0+" + "-" * 2000 + "x1"), "parse error: the expression is nested too deeply"),
    (("nf", "U", "[" * 300 + "x1" + ",x2]" * 300), "parse error: the expression is nested too deeply"),
    (("preset", "taft", "--param", "name=1"), "error: unknown parameters: ['name']"),
], ids=["fp-denominator", "parentheses", "signs", "brackets", "param-name"])
def test_refusals_that_escaped_exit_2_with_one_line(capsys, nf_files, argv, prefix):
    code, out, err = run(capsys, *(nf_files.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


def test_two_hundred_nested_parentheses_still_parse(capsys, qplane_file):
    code, out, err = run(capsys, "nf", qplane_file, "(" * 200 + "x1" + ")" * 200)
    assert (code, out, err) == (0, "x1\n", "")


@pytest.mark.parametrize("call,argv", [
    ("check_pbw", ("check", "FILE")),
    ("normal_form", ("nf", "FILE", "x1")),
    ("dimension", ("dim", "FILE")),
    ("hilbert", ("hilbert", "FILE", "--max-deg", "3")),
    ("lyndon_up_to", ("lyndon", "--theta", "2", "--max-len", "2")),
    ("shirshov_decompose", ("shirshov", "12")),
    ("build_preset", ("preset", "taft")),
    ("generic_redundancies", ("redundant", "FILE")),
])
def test_every_command_reports_a_value_error_as_one_line(capsys, monkeypatch, taft_file, call, argv):
    def boom(*_args, **_kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, call, boom)
    code, out, err = run(capsys, *(taft_file if a == "FILE" else a for a in argv))
    assert (code, out, err) == (2, "", "error: boom\n")


_EXPR_ATOMS = ("x1", "x2", "x12", "g1", "g2", "z", "z^2", "0", "1", "2", "1/7", "3/2", "-1/14")
_EXPR_TOKENS = _EXPR_ATOMS + ("+", "-", "*", "^2", "(", ")", "[", "]", ",", "]_1", " ")
# expressions of the grammar, each then given up to two stray tokens
_EXPRS = st.recursive(st.sampled_from(_EXPR_ATOMS), lambda e: st.one_of(
    st.tuples(e, st.sampled_from("+-*"), e).map("".join),
    st.tuples(e, st.sampled_from(("^0", "^2", "^3"))).map(lambda p: f"({p[0]}){p[1]}"),
    st.tuples(e, e).map(lambda p: f"[{p[0]},{p[1]}]"),
    e.map(lambda a: f"-({a})"),
), max_leaves=5)
_STRAYS = st.lists(st.tuples(st.integers(0, 99), st.sampled_from(_EXPR_TOKENS)), max_size=2)


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(("U", "F7")), _EXPRS, _STRAYS)
def test_nf_on_random_expressions_prints_a_result_or_one_refusal(nf_files, which, expr, strays):
    for at, token in strays:
        at %= len(expr) + 1
        expr = expr[:at] + token + expr[at:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["nf", nf_files[which], "--", expr])
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith(("parse error: ", "error: ")) and err.getvalue().count("\n") == 1
