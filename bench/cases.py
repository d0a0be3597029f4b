"""Seeded inputs for the four workloads.

Every datum is built fresh by `build_preset` and converted to its JSON dict;
negative controls are made by editing that dict.  No `Datum` object is ever
shared between cases or copied with `dataclasses.replace`, so no derived
cache can leak from one case into another.

A case is `(stem, datum_dict, ops)`; an op is a JSON-ready dict
`{"kind": ..., **expectations}` that `workloads.py` turns into a call.  `digest(cases)` fingerprints everything the timed loop will run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# The 20 presets of the package, fixed here so that adding a preset to the
# package does not change what this benchmark measures.
PRESETS = (
    "b2_scaffold", "book", "lifting_a1", "lifting_a1xa1",
    "lifting_a2_1a", "lifting_a2_1b", "lifting_a2_1c", "lifting_a2_2a",
    "lifting_a2_2b", "lifting_a2_3a", "lifting_a2_3b", "lifting_a2_4a",
    "lifting_a2_4b", "nichols_a1", "nichols_a1xa1", "quantum_plane",
    "radford", "taft", "uq_sl2", "weyl",
)

# Lifting coefficients that may be nonzero for each preset's default group
# and characters (the preset builder rejects a nonzero value elsewhere).
LIFTING_PARAMS = {
    "lifting_a1": ("mu1",),
    "lifting_a1xa1": ("lam12", "mu1", "mu2"),
    "lifting_a2_1a": ("mu1", "mu12", "mu2"),
    "lifting_a2_1b": ("lam112", "lam122", "mu1", "mu12", "mu2"),
    "lifting_a2_1c": ("mu1", "mu12", "mu2"),
    "lifting_a2_2a": ("mu1", "mu2"),
    "lifting_a2_2b": ("lam112", "mu1", "mu2"),
    "lifting_a2_3a": ("mu1", "mu2"),
    "lifting_a2_3b": ("lam122", "mu1", "mu2"),
    "lifting_a2_4a": ("mu1", "mu12"),
    "lifting_a2_4b": ("mu2", "mu12"),
}

# nf-expand: (preset, params, letters of the seeded sum, power k).  k is
# chosen so that one `pbw nf` takes roughly 10-200 ms with this code; the
# cost grows steeply with k (uq_sl2 N=3: k=6 36 ms, k=7 133 ms, k=8 0.8 s).
NF_CASES = (
    ("uq_sl2", {"N": 3}, ("1", "2"), 6),
    ("uq_sl2", {"N": 5}, ("1", "2"), 6),
    ("uq_sl2", {"N": 7}, ("1", "2"), 6),
    ("uq_sl2", {"N": 9}, ("1", "2"), 6),
    ("uq_sl2", {"N": 11}, ("1", "2"), 5),
    ("lifting_a2_1a", {}, ("1", "12", "2"), 4),
    ("lifting_a2_1b", {}, ("1", "2"), 6),
    ("lifting_a2_1c", {}, ("1", "2"), 6),
    ("lifting_a2_2a", {}, ("1", "2"), 6),
    ("lifting_a2_2b", {}, ("1", "2"), 6),
    ("lifting_a2_3a", {}, ("1", "2"), 6),
    ("lifting_a2_3b", {}, ("1", "2"), 6),
    ("lifting_a2_4a", {}, ("1", "2"), 6),
    ("lifting_a2_4b", {}, ("1", "2"), 6),
    ("b2_scaffold", {}, ("1", "2"), 6),
)

# oracle-rank: presets on which quotient_rank takes at most about 0.3 s, in
# rising order of cost.  A run holds about 30 sweeps of the 15 ops; p50 is
# the best latency of the 8th op and p90 lies 0.6 of the way from the 13th
# to the 14th.  The 8th op is at least twice as slow as the 7th and half as
# fast as the 9th, and the 14th and 15th cost the same and at least twice
# as much as the 13th; none of the three has a coefficient for the seed to
# change.  Ops close in cost swap places from run to run as the machine's
# speed drifts; with book N=4 (26-45 ms) at p50 next to lifting_a2_1a
# (17-22 ms), p50 jumped between them and spread by 0.24-0.30 over ten
# runs.  Costs on a 2-core shared x86-64 host:
#   1-7  under 2.5 ms: the rank-one presets (seeded N), nichols_a1xa1 2x2
#        and 2x3, lifting_a1xa1 N=2
#   8    uq_sl2 N=3, 4-6.5 ms
#   9-13 17-130 ms: lifting_a2_1a, nichols_a1xa1 3x4, book N=4,
#        nichols_a1xa1 4x4, lifting_a2_2a
#   14-15 nichols_a1xa1 4x5 and 3x6, 290 ms each
# Left out: uq_sl2 N=7 (282 s), b2_scaffold and lifting_a2_1c (infeasible),
# lifting_a2_1b (2.3-2.5 s); lifting_a2_4b (1.1-1.6 s depending on the
# signs of its coefficients), uq_sl2 N=5 (1.0-1.2 s) and book N=5 (0.4-0.55
# s), which held a run to about 10 sweeps, too few samples for a steady p50;
# book N=3, nichols_a1xa1 3x3 and the other A2 liftings, too close in cost
# to the ops that p50 and p90 rest on.
ORACLE_CASES = (
    ("taft", {"N": (2, 3, 4, 5, 6, 7, 8)}),
    ("nichols_a1", {"N": (2, 3, 4, 5, 6, 7, 8)}),
    ("radford", {"N": (2, 3, 4, 5)}),
    ("lifting_a1", {"N": (2, 3, 4)}),
    ("nichols_a1xa1", {"N1": (2,), "N2": (2,)}),
    ("nichols_a1xa1", {"N1": (2,), "N2": (3,)}),
    ("lifting_a1xa1", {"N": (2,)}),
    ("uq_sl2", {"N": (3,)}),
    ("lifting_a2_1a", {}),
    ("nichols_a1xa1", {"N1": (3,), "N2": (4,)}),
    ("book", {"N": (4,)}),
    ("nichols_a1xa1", {"N1": (4,), "N2": (4,)}),
    ("lifting_a2_2a", {}),
    ("nichols_a1xa1", {"N1": (4,), "N2": (5,)}),
    ("nichols_a1xa1", {"N1": (3,), "N2": (6,)}),
)


def expected_dimension(data):
    """Product of the heights times the group order, read off the datum
    dict; None when a height or the group is infinite."""
    if data["group"]["free_rank"] or "inf" in data["heights"].values():
        return None
    return math.prod(data["heights"].values()) * math.prod(data["group"]["torsion"])


def _rational(rng):
    """A small nonzero rational, as the preset builders accept it."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))


def _datum(presets, datumio, name, params):
    return datumio.datum_to_dict(presets.build_preset(name, **params).datum)


def _stem(name, params):
    parts = [name] + [f"{k}{v}" for k, v in sorted(params.items())]
    return "_".join(parts).replace("/", "d")


def _check_ops(data, modes=("full", "reduced"), exit_code=0):
    dim = expected_dimension(data)
    return [{"kind": "check", "mode": m, "exit": exit_code, "dim": dim} for m in modes]


def check_pass(rng, presets, datumio):
    cases = []
    ladder = [("uq_sl2", {"N": n}) for n in (5, 7, 9, 11, 13)]
    for name, params in [(p, {}) for p in PRESETS] + ladder:
        if name in LIFTING_PARAMS:
            params = {p: _rational(rng) for p in LIFTING_PARAMS[name]}
        data = _datum(presets, datumio, name, params)
        ops = _check_ops(data) + [{"kind": "redundant"}]
        cases.append((_stem(name, params), data, ops))
    return cases


def _one_minus_g(c, identity, g):
    """Terms of c (1 - g) in the datum-file format."""
    return [
        {"word": [], "grp": identity, "coeff": str(c)},
        {"word": [], "grp": g, "coeff": str(-c)},
    ]


def check_tampered(rng, presets, datumio):
    """The four tamperings of the acceptance suite and the uq_sl2 red_12
    tampering over an N ladder, with seeded nonzero coefficients.

    The 15 ops fall into four cost groups: 7 under 3 ms (radford, the
    height tampering), 4 at 10-15 ms (uq_sl2 N=3, lifting_a1xa1 N=2) and 4
    at 150-200 ms (uq_sl2 N=5, lifting_a1xa1 N=3).  p50 over the ops' best
    latencies then falls on `check` and `check --mode reduced` on uq_sl2
    N=3, which cost the same, and p90 inside the slowest group."""
    cases = []
    for n in (3, 5):
        data = _datum(presets, datumio, "uq_sl2", {"N": n})
        c = _rational(rng)
        data["reds"]["12"] = _one_minus_g(c, [0], [1])
        cases.append((f"uq_sl2_N{n}_red12", data, _check_ops(data, exit_code=1)))
    for n, modes in ((2, ("full", "reduced")), (3, ("full", "reduced")), (4, ("full",))):
        data = _datum(presets, datumio, "radford", {"N": n})
        data["redhats"]["1"] = [{"word": [], "grp": [1], "coeff": str(_rational(rng))}]
        cases.append((f"radford_N{n}_redhat1", data, _check_ops(data, modes, exit_code=1)))
    # The CLI validates heights against ord q_uu before checking, so this
    # tampering is refused as an invalid datum (exit 2).
    data = _datum(presets, datumio, "uq_sl2", {"N": 3})
    data["heights"] = {"1": 2, "2": 3}
    cases.append(("uq_sl2_N3_height2", data, [{"kind": "check", "mode": m, "exit": 2} for m in ("full", "reduced")]))
    for n in (2, 3):
        data = _datum(presets, datumio, "lifting_a1xa1", {"N": n})
        data["reds"]["12"] = _one_minus_g(_rational(rng), [0, 0], [1, 0])
        cases.append((f"lifting_a1xa1_N{n}_red12", data, _check_ops(data, exit_code=1)))
    return cases


def _nf_expression(rng, data, letters):
    """A seeded sum of each letter and the first group generator, each with
    a seeded root-of-unity coefficient z^j.  (Seeding the generator or its
    exponent as well changed the cost per seed by up to 1.5 times.)"""
    m = data["field"]["cyclotomic"]
    terms = [f"z^{rng.randrange(m)}*x{u}" for u in letters]
    terms.append(f"z^{rng.randrange(m)}*g1")
    return " + ".join(terms)


def nf_expand(rng, presets, datumio):
    cases = []
    for name, params, letters, k in NF_CASES:
        data = _datum(presets, datumio, name, params)
        base = _nf_expression(rng, data, letters)
        cases.append((_stem(name, params), data, [{"kind": "nf", "base": base, "k": k}]))
    return cases


def oracle_rank(rng, presets, datumio):
    """Coefficients are seeded as +-1 only: elimination cost grows with the
    height of the coefficients (lifting_a2_4b goes from 1.05 s to 1.8 s with
    3/7 and -5/2), which would tie the run-to-run spread to the seed."""
    cases = []
    for name, choices in ORACLE_CASES:
        params = {k: rng.choice(v) for k, v in choices.items()}
        if name in LIFTING_PARAMS:
            params.update({p: rng.choice((-1, 1)) for p in LIFTING_PARAMS[name]})
        data = _datum(presets, datumio, name, params)
        ops = [{"kind": "rank", "dim": expected_dimension(data)}]
        cases.append((f"{len(cases):02d}_{_stem(name, params)}", data, ops))
    return cases


_GENERATORS = {
    "check-pass": check_pass,
    "check-tampered": check_tampered,
    "nf-expand": nf_expand,
    "oracle-rank": oracle_rank,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload, seed, presets, datumio):
    """The workload's cases for this seed; `presets` and `datumio` are the
    package modules to build them with."""
    rng = random.Random(f"{workload}:{seed}")
    cases = _GENERATORS[workload](rng, presets, datumio)
    stems = [stem for stem, _, _ in cases]
    if len(set(stems)) != len(stems):
        raise ValueError(f"duplicate case names in {workload}")
    return cases


def digest(cases):
    """SHA-256 of the cases as canonical JSON."""
    blob = json.dumps(cases, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
