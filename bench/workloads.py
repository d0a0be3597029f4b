"""Operations of the benchmark and the checks on their outputs.

An op goes through the path a user takes: `check`, `nf` and `redundant`
call `pbw.cli.main([...])` in-process with stdout captured, and `rank` calls
`quotient_rank` on the datum loaded from its file (it has no command).  The
package modules are looked up on every call, so the traced run sees its
wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass

_REDUNDANT_LINE = re.compile(
    r"(red|redhat)_\S+ is forced by the (height-2 power at \S+|Jacobi combination \(\S+\))"
    r"|(red|redhat)_\S+ reduces to zero without its own rule"
    r"|no redundant relations detected"
)


@dataclass(frozen=True)
class Op:
    label: str
    kind: str           # check | redundant | nf | rank
    path: str           # datum file
    spec: dict          # the op dict from cases.py, with its expectations

    @property
    def argv(self):
        if self.kind == "check":
            return ["check", self.path, "--mode", self.spec["mode"]]
        if self.kind == "redundant":
            return ["redundant", self.path]
        if self.kind == "nf":
            return ["nf", self.path, f"({self.spec['base']})^{self.spec['k']}"]
        return None


def make_ops(cases, workdir):
    """Write each case's datum file and return its ops in a fixed order."""
    ops = []
    for stem, data, specs in cases:
        path = os.path.join(workdir, stem + ".json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f, sort_keys=True)
        for spec in specs:
            detail = spec.get("mode") or spec.get("k", "")
            ops.append(Op(f"{spec['kind']} {stem} {detail}".strip(), spec["kind"], path, spec))
    return ops


def run_op(op, pbw):
    """Run one op; returns (exit code, stdout text)."""
    if op.argv is None:
        d = pbw.datumio.load_datum(op.path)
        return 0, f"{pbw.oracle.quotient_rank(d)}\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = pbw.cli.main(op.argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def pbw_shape_error(poly, heights):
    """None when every monomial of `poly` is a PBW word: strictly decreasing
    blocks of letters of L, each block shorter than the letter's height
    (`heights` maps letter tuples to an int or None).  Otherwise a message."""
    for letters, _g in poly.terms:
        prev, run = None, 0
        for u in letters:
            if u not in heights:
                return f"{letters}: {u} is not a letter of L"
            if prev is not None and u > prev:
                return f"{letters}: letters increase at {u}"
            run = run + 1 if u == prev else 1
            n = heights[u]
            if n is not None and run >= n:
                return f"{letters}: {u} repeated {run} times, height {n}"
            prev = u
    return None


def _verify_check(op, code, out):
    exp = op.spec
    if code != exp["exit"]:
        return f"exit {code}, expected {exp['exit']}"
    if code == 2:
        return None
    lines = out.strip().splitlines()
    dim = "infinite" if exp["dim"] is None else str(exp["dim"])
    want = f"{'PASS' if code == 0 else 'FAIL'}, dim {dim}"
    if not lines or lines[-1] != want:
        return f"last line {lines[-1:]!r}, expected {want!r}"
    return None


def _verify_redundant(op, code, out):
    if code != 0:
        return f"exit {code}, expected 0"
    lines = out.strip().splitlines()
    bad = [line for line in lines if not _REDUNDANT_LINE.fullmatch(line)]
    if not lines or bad:
        return f"unexpected output {bad or lines!r}"
    return None


def _verify_nf(op, code, out, pbw):
    """The printed normal form must parse back, have PBW shape, and equal
    the iterated normal form nf(nf(a^(k-1)) * a)."""
    if code != 0:
        return f"exit {code}, expected 0"
    d = pbw.datumio.load_datum(op.path)
    rules = pbw.rewrite.build_rules(d, pbw.criterion.bracket_table(d))
    got = pbw.exprs.parse_expr(out.strip(), d)
    shape = pbw_shape_error(got, d.heights)
    if shape:
        return f"not a PBW normal form: {shape}"
    a = pbw.exprs.parse_expr(op.spec["base"], d)
    ref = d.unit()
    for _ in range(op.spec["k"]):
        ref = pbw.rewrite.normal_form(rules, d.mul(ref, a))
    if got != ref:
        return "differs from the iterated normal form"
    return None


def _verify_rank(op, code, out):
    if out.strip() != str(op.spec["dim"]):
        return f"rank {out.strip()}, expected {op.spec['dim']}"
    return None


def verify(op, code, out, pbw):
    """Full check of one op's output against what is known independently of
    the code under test; None when correct, else a message."""
    if op.kind == "check":
        return _verify_check(op, code, out)
    if op.kind == "redundant":
        return _verify_redundant(op, code, out)
    if op.kind == "nf":
        return _verify_nf(op, code, out, pbw)
    return _verify_rank(op, code, out)
