"""JSON serialization of presentation data.

Top-level fields: theta, field, group, g, chi, L, heights, reds, redhats.
Unknown fields are rejected.  Scalar literals: an integer is a root exponent
(zeta^k), a string "a/b" is an exact rational, a list of "a/b" strings of
length phi(m) is a cyclotomic coefficient vector.

Sizes are limited so that loading and validating any accepted file takes well
under a second: the conductor m (the field builds one table, of the m powers
x^j mod Phi_m; under 40 ms for every m up to the limit), the prime p (found
prime by trial division), every finite height (the check builds words of
N + 1 letters), and the order of the group's torsion part (the basis
enumeration lists every group element, and quotient_rank those of its coset
block).
"""

from __future__ import annotations

import json
import math

from .algebra import Datum, GroupSpec, NCPoly
from .scalars import CycloField, PrimeField, parse_scalar_literal, scalar_literal
from .words import format_word, parse_word

_TOP_FIELDS = {"theta", "field", "group", "g", "chi", "L", "heights", "reds", "redhats"}

MAX_CONDUCTOR = 1000
MAX_PRIME = 10**9
MAX_HEIGHT = 1000
MAX_GROUP_ORDER = 10_000


class DatumFormatError(ValueError):
    pass


def _require(cond, msg):
    if not cond:
        raise DatumFormatError(msg)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(v):
    return isinstance(v, list) and all(_is_int(k) for k in v)


def _checked(fn, *args):
    """fn(*args), reporting the ValueError it raises for a bad value as a
    DatumFormatError."""
    try:
        return fn(*args)
    except ValueError as e:
        raise DatumFormatError(str(e)) from None


def _word(text):
    _require(isinstance(text, str), f"a word literal must be a string, got {text!r}")
    return _checked(parse_word, text)


def _mapping(data, key):
    obj = data[key]
    _require(isinstance(obj, dict), f"{key} must be a JSON object keyed by words")
    return obj


def datum_from_dict(data: dict) -> Datum:
    """The datum of a JSON object; any malformed input raises DatumFormatError."""
    _require(isinstance(data, dict), "datum must be a JSON object")
    unknown = set(data) - _TOP_FIELDS
    _require(not unknown, f"unknown fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(data)
    _require(not missing, f"missing fields: {sorted(missing)}")

    theta = data["theta"]
    _require(_is_int(theta) and theta >= 1, "theta must be a positive integer")

    fspec = data["field"]
    _require(
        isinstance(fspec, dict) and len(fspec) == 1 and all(_is_int(v) for v in fspec.values()),
        "field must be {'cyclotomic': m} or {'prime': p}",
    )
    if "cyclotomic" in fspec:
        m = fspec["cyclotomic"]
        _require(m <= MAX_CONDUCTOR, f"conductor {m} is above the limit {MAX_CONDUCTOR}")
        field = _checked(CycloField, m)
    elif "prime" in fspec:
        p = fspec["prime"]
        _require(p <= MAX_PRIME, f"prime {p} is above the limit {MAX_PRIME}")
        field = _checked(PrimeField, p)
    else:
        raise DatumFormatError("field must be {'cyclotomic': m} or {'prime': p}")

    gspec = data["group"]
    _require(isinstance(gspec, dict) and set(gspec) <= {"torsion", "free_rank"}, "bad group spec")
    torsion, free_rank = gspec.get("torsion", []), gspec.get("free_rank", 0)
    _require(_is_int_list(torsion) and _is_int(free_rank), "group torsion is a list of integers, free_rank an integer")
    group = _checked(GroupSpec, tuple(torsion), free_rank)
    order = math.prod(group.torsion)
    _require(order <= MAX_GROUP_ORDER, f"group torsion order {order} is above the limit {MAX_GROUP_ORDER}")

    g_list = data["g"]
    _require(
        isinstance(g_list, list) and len(g_list) == theta and all(_is_int_list(v) for v in g_list),
        "g must list theta integer exponent vectors",
    )
    g = tuple(_checked(group.element, v) for v in g_list)

    chi_list = data["chi"]
    _require(isinstance(chi_list, list) and len(chi_list) == theta, "chi must list theta characters")
    for v in chi_list:
        _require(
            _is_int_list(v) and len(v) == group.nfactors,
            "each character is a list of integer root exponents, one per group factor",
        )
    chi = tuple(tuple(v) for v in chi_list)

    _require(isinstance(data["L"], list), "L must be a list of words")
    L_words = [_word(w) for w in data["L"]]
    _require(len(set(L_words)) == len(L_words), "duplicate members in L")
    L = tuple(sorted(L_words))

    heights = {}
    for k, v in _mapping(data, "heights").items():
        w = _word(k)
        if v == "inf":
            heights[w] = None
        else:
            _require(_is_int(v) and v >= 1, f"height of {k} must be a positive integer or 'inf'")
            _require(v <= MAX_HEIGHT, f"height {v} of {k} is above the limit {MAX_HEIGHT}")
            heights[w] = v

    def parse_poly(obj, where):
        _require(isinstance(obj, list), f"{where} must be a list of terms")
        p = NCPoly()
        for t in obj:
            _require(isinstance(t, dict) and set(t) == {"word", "grp", "coeff"}, f"bad term in {where}")
            _require(isinstance(t["word"], list), f"a term word in {where} must be a list of words")
            _require(_is_int_list(t["grp"]), f"a term group element in {where} must be a list of integers")
            letters = tuple(_word(l) for l in t["word"])
            gel = _checked(group.element, t["grp"])
            coeff = _checked(parse_scalar_literal, t["coeff"], field)
            p.add_term((letters, gel), coeff)
        return p

    reds = {_word(k): parse_poly(v, f"reds[{k}]") for k, v in _mapping(data, "reds").items()}
    redhats = {_word(k): parse_poly(v, f"redhats[{k}]") for k, v in _mapping(data, "redhats").items()}

    return Datum(
        theta=theta, field=field, group=group, g=g, chi=chi, L=L,
        heights=heights, reds=reds, redhats=redhats,
    )


def datum_to_dict(d: Datum) -> dict:
    if isinstance(d.field, CycloField):
        fspec = {"cyclotomic": d.field.m}
    else:
        fspec = {"prime": d.field.p}

    def poly_terms(p):
        out = []
        for (U, g), c in sorted(p.terms.items()):
            out.append({
                "word": [format_word(u) for u in U],
                "grp": list(g),
                "coeff": scalar_literal(c),
            })
        return out

    return {
        "theta": d.theta,
        "field": fspec,
        "group": {"torsion": list(d.group.torsion), "free_rank": d.group.free_rank},
        "g": [list(v) for v in d.g],
        "chi": [list(v) for v in d.chi],
        "L": [format_word(u) for u in d.L],
        "heights": {format_word(u): ("inf" if n is None else n) for u, n in d.heights.items()},
        "reds": {format_word(w): poly_terms(p) for w, p in sorted(d.reds.items())},
        "redhats": {format_word(w): poly_terms(p) for w, p in sorted(d.redhats.items())},
    }


def load_datum(path) -> Datum:
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as e:
            raise DatumFormatError(f"not a JSON file: {e}") from e
    return datum_from_dict(data)


def save_datum(d: Datum, path):
    """Write d to path, serialized in full first: a datum that cannot be
    written leaves no partial file."""
    text = json.dumps(datum_to_dict(d), indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
