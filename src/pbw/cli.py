"""Command-line front end.

Exit codes: 0 success (for `check`, pass), 1 a `check` that fails, 2 a
refused input or an invalid datum; the console script exits 141 when its
stdout is closed before the output is written.  All output is
deterministic; polynomial terms print in decreasing rewriting order.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from fractions import Fraction

from .algebra import format_poly
from .criterion import (
    FORCED_LEVELS,
    bracket_table,
    check_pbw,
    forced_power_from_jacobi,
    forced_serre_from_power,
    generic_redundancies,
)
from .datumio import datum_to_dict, load_datum, save_datum
from .exprs import ExprError, parse_expr
from .presets import PRESET_NAMES, build_preset
from .rewrite import build_rules, dimension, hilbert, normal_form
from .words import format_word, lyndon_up_to, parse_word, shirshov_decompose

# `hilbert` takes time quadratic in the degree for each letter of infinite
# height: quantum_plane takes 0.04 s at degree 1000 and 0.4 s at 3000 (one
# core of a 2-core x86 host, Python 3.11).
MAX_HILBERT_DEGREE = 1000

# exit code of the console script when its stdout is closed early; a shell
# reports 128 + SIGPIPE for a process the signal ends
BROKEN_PIPE_EXIT = 141


def _load(path):
    d = load_datum(path)
    violations = d.validate()
    if violations:
        print("invalid datum:", file=sys.stderr)
        for v in violations:
            print(f"  - {v}", file=sys.stderr)
        raise SystemExit(2)
    return d


def _cmd_check(args):
    d = _load(args.file)
    report = check_pbw(d, mode=args.mode)
    dim = dimension(d)
    if args.json:
        payload = report.to_json()
        payload["dimension"] = dim
        print(json.dumps(payload, indent=1))
    else:
        for line in report.lines():
            print(line)
        print(f"{'PASS' if report.passed else 'FAIL'}, dim {dim if dim is not None else 'infinite'}")
    return 0 if report.passed else 1


def _cmd_nf(args):
    d = _load(args.file)
    rules = build_rules(d, bracket_table(d))
    print(format_poly(normal_form(rules, parse_expr(args.expr, d))))
    return 0


def _cmd_dim(args):
    dim = dimension(_load(args.file))
    print(dim if dim is not None else "infinite")
    return 0


def _cmd_hilbert(args):
    if not 0 <= args.max_deg <= MAX_HILBERT_DEGREE:
        raise ValueError(f"--max-deg must be between 0 and {MAX_HILBERT_DEGREE}")
    coeffs = hilbert(_load(args.file), args.max_deg)
    print(" ".join(str(c) for c in coeffs))
    return 0


def _cmd_lyndon(args):
    for w in lyndon_up_to(args.theta, args.max_len):
        print(format_word(w))
    return 0


def _cmd_shirshov(args):
    v, u = shirshov_decompose(parse_word(args.word))
    print(f"({format_word(v)}, {format_word(u)})")
    return 0


def _parse_params(pairs):
    params = {}
    for p in pairs or []:
        if "=" not in p:
            raise ValueError(f"bad parameter {p!r}; use key=value")
        k, v = p.split("=", 1)
        try:
            params[k] = int(v)
        except ValueError:
            try:
                params[k] = Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"bad parameter {p!r}; divides by zero") from None
    return params


def _cmd_preset(args):
    preset = build_preset(args.name, **_parse_params(args.param))
    if args.output:
        save_datum(preset.datum, args.output)
        print(f"wrote {args.output}")
    else:
        print(json.dumps(datum_to_dict(preset.datum), indent=1, sort_keys=True))
    dim = preset.expected_dimension
    print(f"# {preset.name}: expected {'dim ' + str(dim) if dim is not None else 'infinite dimension'}")
    return 0


def _cmd_redundant(args):
    d = _load(args.file)
    table = bracket_table(d)
    found = []
    for u, v in itertools.combinations(d.L, 2):
        for side, x, w in (("left", u, u + u + v), ("right", v, u + v + v)):
            if d.heights[x] == 2 and w in d.reds and forced_serre_from_power(d, u, v, side) == d.reds[w]:
                found.append(f"red_{format_word(w)} is forced by the height-2 power at {format_word(x)}")
    for level in FORCED_LEVELS:
        try:
            forced = forced_power_from_jacobi(d, table, level)
        except ValueError:
            continue
        if forced is None:
            continue
        _c, rhs, word, n = forced
        target = d.reds.get(word) if n == 1 else d.redhats.get(word)
        if target is not None and rhs == target:
            kind = "red" if n == 1 else "redhat"
            found.append(f"{kind}_{format_word(word)} is forced by the Jacobi combination ({level})")
    for kind, w in generic_redundancies(d, table):
        found.append(f"{kind}_{format_word(w)} reduces to zero without its own rule")
    print("\n".join(dict.fromkeys(found)) or "no redundant relations detected")
    return 0


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused: each
    parse_args call returns a fresh namespace, so no value carries over."""
    ap = argparse.ArgumentParser(prog="pbw", description="PBW-basis toolkit for character Hopf algebra presentations")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="run the PBW criterion on a datum file")
    p.add_argument("file")
    p.add_argument("--mode", choices=["full", "reduced"], default="full")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("file")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("dim", help="dimension of the quotient")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("hilbert", help="counts of basis words by length")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, required=True)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("lyndon", help="list Lyndon words")
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_lyndon)

    p = sub.add_parser("shirshov", help="decomposition of a word at its minimal ending")
    p.add_argument("word")
    p.set_defaults(func=_cmd_shirshov)

    p = sub.add_parser("preset", help="emit a named example datum")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("redundant", help="list relations provably implied by the others")
    p.add_argument("file")
    p.set_defaults(func=_cmd_redundant)

    return ap


def main(argv=None):
    """Run one command and return its exit code.  A refused input prints one
    line on stderr and returns 2; any other exception is a bug and propagates."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # entry() turns a closed stdout into exit 141
        raise
    except ExprError as e:
        print(f"parse error: {e}", file=sys.stderr)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
    return 2


def entry():
    """The `pbw` console script.  A stdout closed before the output is
    written (a reader such as `head` that stops early) ends it with exit
    code BROKEN_PIPE_EXIT and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # later writes, including the flush at interpreter exit, go to
        # /dev/null instead of raising again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # no file descriptor behind stdout
            return BROKEN_PIPE_EXIT
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return BROKEN_PIPE_EXIT
    return code


if __name__ == "__main__":
    sys.exit(entry())
