"""The regression corpus: the data that the tests share, and each command-line
regression case once, as a row of CASES.

A row names the command line and what it must give: the exit code, the
exact stdout or its last line, the one failing-condition line, the exact
stderr and a time ceiling.  The files a row reads are written by a builder of FILES
or by an earlier `pbw preset` row.  tests/test_cli.py runs every row through
`cli.main` in-process; `python tests/corpus.py` writes the files into a
temporary directory and runs every row through the installed `pbw` console
script, which must not be the copy in this checkout.  A new command-line
regression is one more row, and both runs make it.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from pbw.algebra import Datum, GroupSpec, NCPoly
from pbw.cli import MAX_HILBERT_DEGREE, main
from pbw.datumio import MAX_FREE_RANK, MAX_MEMBER_LETTERS, MAX_THETA, datum_from_dict, datum_to_dict, save_datum
from pbw.presets import build_preset
from pbw.rewrite import MAX_NF_LETTERS
from pbw.scalars import CycloField
from pbw.words import c_set, format_word

# -- data ---------------------------------------------------------------------


def a2_nichols(N, group=None):
    """A2 Nichols data at ord q = N (odd): q_11 = q_22 = zeta^2,
    q_12 = q_21 = zeta^-1, all heights N, zero reds and redhats; the group
    is Z_N^2 unless given."""
    group = group or GroupSpec((N, N))
    return Datum(
        theta=2, field=CycloField(N), group=group,
        g=(group.element((1, 0)), group.element((0, 1))),
        chi=((2, N - 1), (N - 1, 2)),
        L=((1,), (1, 2), (2,)),
        heights={(1,): N, (1, 2): N, (2,): N},
        reds={(1, 1, 2): NCPoly.zero(), (1, 2, 2): NCPoly.zero()},
        redhats={(1,): NCPoly.zero(), (1, 2): NCPoly.zero(), (2,): NCPoly.zero()},
    )


def tampered_a2_nichols(N, group=None):
    """A2 Nichols data with red_112 = -x2 x1 x1."""
    d = a2_nichols(N, group)
    bad = NCPoly({(((2,), (1,), (1,)), d.group.identity()): d.field.from_rational(-1)})
    return replace(d, reds=d.reds | {(1, 1, 2): bad})


def a3_nichols(N, tamper=None):
    """A3 Nichols data at ord q = N (odd): theta = 3, L = {1, 12, 123, 2,
    23, 3}, q_ij = zeta^(a_ij) for the A3 Cartan matrix, G = Z_N^3 with the
    generators g_i, all heights N, zero reds on the nine words of C(L) and
    zero redhats.  tamper names one of A3_TAMPERINGS, a red set to one
    term of its own degree."""
    group = GroupSpec((N, N, N))
    cartan = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    L = ((1,), (1, 2), (1, 2, 3), (2,), (2, 3), (3,))
    d = Datum(
        theta=3, field=CycloField(N), group=group,
        g=tuple(group.element(tuple(int(i == j) for j in range(3))) for i in range(3)),
        chi=tuple(tuple(a % N for a in row) for row in cartan),
        L=L,
        heights={u: N for u in L},
        reds={w: NCPoly.zero() for w in c_set(L)},
        redhats={u: NCPoly.zero() for u in L},
    )
    if tamper is None:
        return d
    word, term, c = A3_TAMPERINGS[tamper]
    return replace(d, reds=d.reds | {word: NCPoly({(term, group.identity()): d.field.from_rational(c)})})


# name -> (red word, word of its one term, coefficient)
A3_TAMPERINGS = {
    "red_112": ((1, 1, 2), ((2,), (1,), (1,)), -1),        # -x2 x1 x1
    "red_13": ((1, 3), ((3,), (1,)), 2),                    # 2 x3 x1
    "red_1123": ((1, 1, 2, 3), ((2, 3), (1,), (1,)), -1),   # -x23 x1 x1
}


def tampered_uq_sl2(N=3, c=1):
    d = build_preset("uq_sl2", N=N).datum
    bad = NCPoly({((), (0,)): d.field.from_rational(c), ((), (1,)): d.field.from_rational(-c)})  # c (1 - g), not 1 - g^2
    return replace(d, reds={(1, 2): bad})


def uq_sl2_with_redhat_1():
    """uq_sl2 with redhat_1 = 1 - g: valid, since g^3 = 1 makes the only
    power lifting mu (1 - g^3) zero, and not a PBW presentation."""
    d = build_preset("uq_sl2").datum
    bad = NCPoly({((), (0,)): d.field.one(), ((), (1,)): -d.field.one()})
    return replace(d, redhats=d.redhats | {(1,): bad})


def tampered_lifting_a1xa1(N=2, c=1):
    d = build_preset("lifting_a1xa1", N=N).datum
    bad = NCPoly({((), (0, 0)): d.field.from_rational(c), ((), (1, 0)): d.field.from_rational(-c)})  # c (1 - g1), not 1 - g1 g2
    return replace(d, reds={(1, 2): bad})


def radford_redhat(N=2, c=1):
    """Radford with redhat_1 = c g: a power relation x1^N - c g of mixed
    length, and of one character, since x1^N has the trivial one."""
    d = build_preset("radford", N=N).datum
    return replace(d, redhats={(1,): NCPoly({((), (1,)): d.field.from_rational(c)})})


def tampered_instances():
    """(description, datum, margin) triples; every instance is valid, has
    a finite group and dimension at most 64."""
    return [
        ("uq_sl2 with red_12 = 1 - g", tampered_uq_sl2(), 2),
        ("radford with redhat_1 = g", radford_redhat(), 3),
        ("uq_sl2 with redhat_1 = 1 - g", uq_sl2_with_redhat_1(), 2),
        ("a1xa1 lifting with red_12 = 1 - g1", tampered_lifting_a1xa1(), 2),
    ]


def b2_repro():
    """b2_scaffold with red_122 = -x2 x2 x1: valid, but not confluent."""
    d = build_preset("b2_scaffold").datum
    bad = NCPoly({(((2,), (2,), (1,)), d.group.identity()): d.field.from_rational(-1)})
    return replace(d, reds=d.reds | {(1, 2, 2): bad})


def uq_sl2_three_letters(N=3):
    """The Frobenius-Lusztig kernel presented over {1, 12, 2}: the middle
    letter has height one and rewrites straight to 1 - g^2."""
    f = CycloField(N)
    gs = GroupSpec((N,))

    def poly(*terms):
        p = NCPoly()
        for letters, g, c in terms:
            p.add_term((tuple(tuple(l) for l in letters), gs.element(g)), c)
        return p

    one = f.one()
    return Datum(
        theta=2, field=f, group=gs,
        g=(gs.element((1,)), gs.element((1,))),
        chi=((-2 % N,), (2,)),
        L=((1,), (1, 2), (2,)),
        heights={(1,): N, (1, 2): 1, (2,): N},
        reds={
            (1, 1, 2): poly(([(1,)], (2,), f.root(-4 % N) - one)),
            (1, 2, 2): poly(([(2,)], (0,), one - f.root(4 % N))),
        },
        redhats={
            (1,): NCPoly.zero(),
            (2,): NCPoly.zero(),
            (1, 2): poly(([], (0,), one), ([], (2,), -one)),
        },
    )


def uq_sl2_over_f7():
    raw = datum_to_dict(build_preset("uq_sl2").datum)
    raw["field"] = {"prime": 7}
    raw["chi"] = [[2 * e for e in chi] for chi in raw["chi"]]
    return datum_from_dict(raw)


def q_commuting_letters(n):
    """n letters of infinite height over Q, q-commuting with q = 1."""
    L = tuple((i,) for i in range(1, n + 1))
    return Datum(
        theta=n, field=CycloField(1), group=GroupSpec(()), g=((),) * n, chi=((),) * n, L=L,
        heights={u: None for u in L}, reds={w: NCPoly.zero() for w in c_set(L)}, redhats={},
    )


# a valid datum over F_7: one letter of height 3
F7_DATUM = {
    "theta": 1, "field": {"prime": 7}, "group": {"torsion": [6], "free_rank": 0},
    "g": [[1]], "chi": [[2]], "L": ["1"], "heights": {"1": 3}, "reds": {}, "redhats": {"1": []},
}


def uq_sl2_json(edit):
    """The JSON object of uq_sl2 after edit(obj)."""
    raw = datum_to_dict(build_preset("uq_sl2").datum)
    edit(raw)
    return raw


def _nested_coefficient():
    raw = uq_sl2_json(lambda r: r["reds"].update({"12": [{"word": [], "grp": [0], "coeff": ["NESTED", "0"]}]}))
    return json.dumps(raw).replace('"NESTED"', "[" * 990 + "]" * 990)


def letters_without_reds(theta):
    """theta q-commuting letters of infinite height over Q with empty reds."""
    L = [format_word((i,)) for i in range(1, theta + 1)]
    return {
        "theta": theta, "field": {"cyclotomic": 1}, "group": {"torsion": [], "free_rank": 0},
        "g": [[]] * theta, "chi": [[]] * theta, "L": L, "heights": {u: "inf" for u in L}, "reds": {}, "redhats": {},
    }


_LONG_MEMBER = "1" + "2" * 9999

# file name -> builder of a Datum, a JSON object or the text of the file
FILES = {
    "t3.json": tampered_uq_sl2,
    "t9.json": lambda: tampered_uq_sl2(9),
    "t15.json": lambda: tampered_uq_sl2(15),
    "rh.json": uq_sl2_with_redhat_1,
    "a2.json": lambda: a2_nichols(999, GroupSpec((), 2)),
    "b2t.json": b2_repro,
    "a3t.json": lambda: a3_nichols(9, "red_13"),
    "p10.json": lambda: q_commuting_letters(10),
    "h2.json": lambda: replace(build_preset("uq_sl2").datum, heights={(1,): 2, (2,): 3}),
    "taft5.json": lambda: replace(build_preset("taft").datum, heights={(1,): 5}),
    "f7.json": lambda: F7_DATUM,
    "broken.json": lambda: '{"theta": 1}',
    "deep.json": lambda: "[" * 200_000 + "]" * 200_000,
    "nested.json": _nested_coefficient,
    "rank.json": lambda: uq_sl2_json(lambda r: r["group"].update(free_rank=MAX_FREE_RANK + 1)),
    "long.json": lambda: uq_sl2_json(lambda r: (r["L"].append(_LONG_MEMBER), r["heights"].update({_LONG_MEMBER: "inf"}))),
    "theta.json": lambda: letters_without_reds(MAX_THETA + 1),
    "noreds.json": lambda: letters_without_reds(MAX_THETA),
}


def write_file(path, content):
    if isinstance(content, Datum):
        save_datum(content, path)
    else:
        Path(path).write_text(content if isinstance(content, str) else json.dumps(content))


# -- cases --------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One command line and what it must give.  last is the exact last line
    of stdout and out the exact stdout (None: not checked, but a refusal,
    exit 2, prints nothing on stdout); fail is the one line of a failing
    condition (None: there is none); err is the exact stderr (None: it is
    empty).  A `check --json` report is read as its failing-condition lines
    and the last line of its text form.  A row that exits nonzero writes no
    file."""

    name: str
    argv: tuple
    code: int
    last: str | None = None
    fail: str | None = None
    err: str | None = None
    out: str | None = None
    seconds: float = 10.0


_WORD = "1" + "12" * 49_999 + "2"  # its ending (12)^49999 2 is Lyndon
_NOT_JSON = "not a JSON file: maximum recursion depth exceeded while decoding a JSON array from a unicode string"

# Each comment names the fault that its rows guard against.
CASES = [
    Case("preset-uq_sl2", ("preset", "uq_sl2", "-o", "u.json"), 0, "# uq_sl2: expected dim 27"),
    Case("check-uq_sl2", ("check", "u.json"), 0, "PASS, dim 27"),
    Case("check-uq_sl2-reduced-json", ("check", "u.json", "--mode", "reduced", "--json"), 0, "PASS, dim 27"),
    Case("redundant-uq_sl2", ("redundant", "u.json"), 0, out="no redundant relations detected\n"),
    Case("hilbert-uq_sl2", ("hilbert", "u.json", "--max-deg", "4"), 0, out="1 2 3 2 1\n"),
    Case("nf-uq_sl2", ("nf", "u.json", "x2*x1"), 0, out="x2*x1\n"),
    Case("preset-lifting_a2_2b", ("preset", "lifting_a2_2b", "-o", "l.json"), 0, "# lifting_a2_2b: expected dim 128"),
    Case("redundant-lifting_a2_2b", ("redundant", "l.json"), 0, out="red_122 is forced by the height-2 power at 2\n"
         "redhat_12 is forced by the Jacobi combination (rank2-12)\n"),
    # comparing each ending as a slice took about 40 s
    Case("shirshov-100000-letters", ("shirshov", _WORD), 0, out=f"(1, {_WORD[1:]})\n", seconds=1.0),
    # rescanning every monomial after each rewrite step took 22 s
    Case("preset-uq_sl2-N7", ("preset", "uq_sl2", "--param", "N=7", "-o", "u7.json"), 0, "# uq_sl2: expected dim 343"),
    Case("nf-uq_sl2-N7-power-11", ("nf", "u7.json", "(x1+x2+g1)^11"), 0),
    # the rewrite limit: a normal form past it is refused, not run for
    # minutes, and x1^100*x2^100 takes 10,000 steps on words of 200 letters,
    # exactly the limit
    Case("preset-quantum_plane", ("preset", "quantum_plane", "-o", "qp.json"), 0, "# quantum_plane: expected infinite dimension"),
    Case("nf-past-the-rewrite-limit", ("nf", "qp.json", "x1^500*x2^500"), 2,
         err=f"error: normal form rewrites more than {MAX_NF_LETTERS} letters\n", seconds=5.0),
    Case("nf-at-the-rewrite-limit", ("nf", "qp.json", "x1^100*x2^100"), 0, out="*".join(["x2"] * 100 + ["x1"] * 100) + "\n"),
    Case("hilbert-negative-degree", ("hilbert", "qp.json", "--max-deg", "-1"), 2,
         err=f"error: --max-deg must be between 0 and {MAX_HILBERT_DEGREE}\n"),
    Case("hilbert-past-the-degree-limit", ("hilbert", "qp.json", "--max-deg", str(MAX_HILBERT_DEGREE + 1)), 2,
         err=f"error: --max-deg must be between 0 and {MAX_HILBERT_DEGREE}\n"),
    Case("hilbert-at-the-degree-limit", ("hilbert", "qp.json", "--max-deg", str(MAX_HILBERT_DEGREE)), 0,
         out=" ".join(str(k + 1) for k in range(MAX_HILBERT_DEGREE + 1)) + "\n"),
    # a nonzero residue is decided by the diamond: the span fallback took
    # 0.4 s at N = 9 and refused N = 15
    Case("check-uq_sl2-red_12", ("check", "t3.json"), 1, "FAIL, dim 27", "leibniz(2;1<2): FAIL, diamond, residue terms: 1"),
    Case("check-uq_sl2-N9-red_12", ("check", "t9.json"), 1, "FAIL, dim 729", "leibniz(2;1<2): FAIL, diamond, residue terms: 1",
         seconds=20.0),
    Case("check-uq_sl2-N15-red_12", ("check", "t15.json"), 1, "FAIL, dim 3375", "leibniz(2;1<2): FAIL, diamond, residue terms: 1"),
    # the valid negative control of the acceptance suite
    *(Case(f"check-uq_sl2-redhat_1{suffix}", ("check", "rh.json", *extra), 1, "FAIL, dim 27",
           "leibniz(1;1<2): FAIL, diamond, residue terms: 1")
      for suffix, extra in (("", ()), ("-json", ("--json",)), ("-reduced", ("--mode", "reduced")),
                            ("-reduced-json", ("--mode", "reduced", "--json")))),
    # the preset whose bracket table runs the recursion
    Case("preset-b2_scaffold", ("preset", "b2_scaffold", "-o", "b2.json"), 0, "# b2_scaffold: expected dim 3125"),
    Case("check-b2_scaffold", ("check", "b2.json"), 0, "PASS, dim 3125"),
    # the nested products of the Leibniz elements took 42 s at height 301,
    # and about 50 minutes at 999
    Case("check-a2-height-999", ("check", "a2.json"), 0, "PASS, dim infinite", seconds=30.0),
    # deciding the conditions above the least failing one: b2's span test
    # needs 15,606,751 placements and was refused, and A3's normal forms ran
    # past the rewrite limit after about 10 s
    Case("check-b2-red_122", ("check", "b2t.json"), 1, "FAIL, dim 3125", "jacobi(1<112<2): FAIL, diamond, residue terms: 4",
         seconds=2.0),
    Case("check-a3-N9-red_13", ("check", "a3t.json"), 1, "FAIL, dim 387420489", "jacobi(12<2<3): FAIL, diamond, residue terms: 2"),
    # a letter above 9 round-trips through a datum file ("10," is the letter 10)
    Case("check-ten-letters", ("check", "p10.json"), 0, "PASS, dim infinite", seconds=20.0),
    Case("check-invalid-height", ("check", "h2.json"), 2, err="invalid datum:\n  - height 2 of 1 differs from ord q_uu = 3\n"),
    Case("check-taft-height-5", ("check", "taft5.json"), 2, err="invalid datum:\n  - height 5 of 1 differs from ord q_uu = 3\n"),
    # listing all 2,016 missing words made a 13,547-character line
    Case("check-missing-reds", ("check", "noreds.json"), 2,
         err="invalid datum:\n  - reds must be given for exactly C(L): missing 12, 13, 14, 15 and 2012 more\n"),
    # refusals that were tracebacks: a parameter called like build_preset's
    # own argument (a TypeError), an output path that cannot be opened, an
    # expression nested 300 deep and a denominator divisible by p over F_p
    Case("preset-non-integer-param", ("preset", "taft", "--param", "N=5/2"), 2, err="error: parameter N must be an integer\n"),
    Case("preset-unknown-param", ("preset", "weyl", "--param", "N=5/2"), 2, err="error: unknown parameters: ['N']\n"),
    Case("preset-param-name", ("preset", "taft", "--param", "name=1"), 2, err="error: unknown parameters: ['name']\n"),
    Case("preset-unwritable-path", ("preset", "taft", "-o", "missing/t.json"), 2,
         err="error: [Errno 2] No such file or directory: 'missing/t.json'\n"),
    Case("nf-nested-parentheses", ("nf", "u.json", "(" * 300 + "x1" + ")" * 300), 2,
         err="parse error: the expression is nested too deeply (line 1, column 1)\n"),
    Case("nf-200-parentheses", ("nf", "qp.json", "(" * 200 + "x1" + ")" * 200), 0, out="x1\n"),
    Case("nf-fp-denominator", ("nf", "f7.json", "1/7*x1"), 2, err="parse error: denominator divisible by 7 (line 1, column 1)\n"),
    # malformed files, refused at once: nesting gave a RecursionError
    # traceback, a free rank past the limit built a tuple of that length,
    # validate() took 1.5 s on the long member, and 300 letters printed a
    # 0.37 MB error line
    Case("check-missing-fields", ("check", "broken.json"), 2,
         err="error: missing fields: ['L', 'chi', 'field', 'g', 'group', 'heights', 'redhats', 'reds']\n"),
    Case("check-deep", ("check", "deep.json"), 2, err=f"error: {_NOT_JSON}\n"),
    Case("check-nested", ("check", "nested.json"), 2, err=f"error: {_NOT_JSON}\n"),
    Case("check-rank", ("check", "rank.json"), 2, err=f"error: free rank {MAX_FREE_RANK + 1} is above the limit {MAX_FREE_RANK}\n"),
    Case("check-long", ("check", "long.json"), 2, err=f"error: a member of L has 10000 letters, above the limit {MAX_MEMBER_LETTERS}\n"),
    Case("check-theta", ("check", "theta.json"), 2, err=f"error: theta {MAX_THETA + 1} is above the limit {MAX_THETA}\n"),
]


def _report_lines(payload):
    """The failing-condition lines and the last line of the text form of a
    `check --json` report."""
    lines = [f"{c['id']}: FAIL{', diamond' if c['diamond'] else ''}, residue terms: {c['residue_terms']}"
             for c in payload["conditions"] if c["status"] == "fail"]
    dim = payload["dimension"]
    return lines + [f"{payload['verdict'].upper()}, dim {'infinite' if dim is None else dim}"]


# file name -> the preset row that writes it
_PRESET_OUTPUTS = {c.argv[-1]: c for c in CASES if c.argv[0] == "preset" and c.argv[-2] == "-o" and c.code == 0}


def run_case(case, directory, run):
    """Run case in directory, first writing any file it reads that is not
    there; run(argv, directory, seconds) returns (exit code, stdout, stderr).
    Returns the list of the ways the outcome differs from the row."""
    for name in case.argv[1:]:
        if name in FILES and not (directory / name).exists():
            write_file(directory / name, FILES[name]())
        elif name in _PRESET_OUTPUTS and _PRESET_OUTPUTS[name] is not case and not (directory / name).exists():
            run(_PRESET_OUTPUTS[name].argv, directory, _PRESET_OUTPUTS[name].seconds)
    before = sorted(directory.rglob("*"))
    t0 = time.perf_counter()
    code, out, err = run(case.argv, directory, case.seconds)
    elapsed = time.perf_counter() - t0
    lines = _report_lines(json.loads(out)) if code in (0, 1) and "--json" in case.argv else out.splitlines()
    failing = [line for line in lines if ": FAIL," in line]
    problems = []
    if code != case.code:
        problems.append(f"exit code {code}, expected {case.code}")
    if case.last is not None and lines[-1:] != [case.last]:
        problems.append(f"last line {lines[-1:]!r}")
    if case.out is not None and out != case.out or code == 2 and out:
        problems.append(f"stdout {out[:200]!r}")
    if failing != ([case.fail] if case.fail else []):
        problems.append(f"failing lines {failing!r}")
    if err != (case.err or ""):
        problems.append(f"stderr {err[:500]!r}")
    if code != 0 and sorted(directory.rglob("*")) != before:
        problems.append("a refused or failing command wrote a file")
    if elapsed > case.seconds:
        problems.append(f"took {elapsed:.2f} s, more than {case.seconds} s")
    return problems


def run_in_process(argv, directory, seconds):
    """cli.main on argv, with directory as the working directory."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as e:  # argparse refuses a malformed command line
        code = e.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_installed():
    """Run every row through the installed console script, in a temporary
    directory; returns 1 if any row differs, else 0.  Neither the script nor
    the package it and this module import may be the copy in the checkout."""
    import pbw

    if Path(pbw.__file__).resolve().is_relative_to(Path(__file__).resolve().parents[1]):
        raise SystemExit(f"pbw is imported from the checkout ({pbw.__file__}); install it and run without PYTHONPATH")
    script = shutil.which("pbw")
    if script is None:
        raise SystemExit("no pbw console script on PATH")

    def run(argv, directory, seconds):
        p = subprocess.run([script, *argv], cwd=directory, capture_output=True, text=True, timeout=seconds)
        return p.returncode, p.stdout, p.stderr

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            try:
                problems = run_case(case, Path(tmp), run)
            except subprocess.TimeoutExpired as e:
                problems = [f"timed out after {e.timeout} s"]
            print(f"{'FAILED' if problems else 'ok'} {case.name}", *(f"    {p}" for p in problems), sep="\n")
            failed += bool(problems)
    print(f"{len(CASES) - failed} of {len(CASES)} rows passed through {script}")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(run_installed())
