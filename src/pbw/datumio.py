"""JSON serialization of presentation data.

Top-level fields: theta, field, group, g, chi, L, heights, reds, redhats.
Unknown fields are rejected.  Scalar literals: an integer is a root exponent
(zeta^k), a string "a/b" is an exact rational, a list of "a/b" strings of
length phi(m) is a cyclotomic coefficient vector.

Sizes are limited so that loading and validating any accepted file takes well
under a second: the rank theta (the datum builds a table of the theta^2
exponents of q_ij), the conductor m (the field builds one table, of the m
powers x^j mod Phi_m; under 40 ms for every m up to the limit), the prime p
(found prime by trial division), every finite height (the check builds words
of N + 1 letters), the order of the group's torsion part (the basis
enumeration lists every group element, and quotient_rank those of its coset
block), the free rank (the group builds a tuple of that length) and the
length of each member of L (validate() tests it in quadratic time).
"""

from __future__ import annotations

import json
import math

from .algebra import Datum, GroupSpec, NCPoly
from .scalars import CycloField, PrimeField, parse_scalar_literal, scalar_literal
from .words import format_word, parse_word

_TOP_FIELDS = {"theta", "field", "group", "g", "chi", "L", "heights", "reds", "redhats"}
_TERM_FIELDS = {"word", "grp", "coeff"}
_INT = frozenset({int})
_FIELD_SPEC = "field must be {'cyclotomic': m} or {'prime': p}"

MAX_THETA = 64
MAX_CONDUCTOR = 1000
MAX_PRIME = 10**9
MAX_HEIGHT = 1000
MAX_GROUP_ORDER = 10_000
MAX_FREE_RANK = 64
MAX_MEMBER_LETTERS = 64


class DatumFormatError(ValueError):
    pass


def _require(cond, msg, *args):
    """Raise DatumFormatError(msg % args), built only then, unless cond."""
    if not cond:
        raise DatumFormatError(msg % args)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(v):
    # the element types decide a list read from JSON without a loop in Python
    return isinstance(v, list) and (_INT.issuperset(map(type, v)) or all(_is_int(k) for k in v))


def _word(text):
    if not isinstance(text, str):
        raise DatumFormatError(f"a word literal must be a string, got {text!r}")
    return parse_word(text)


def _mapping(data, key):
    obj = data[key]
    _require(isinstance(obj, dict), "%s must be a JSON object keyed by words", key)
    return obj


def datum_from_dict(data: dict) -> Datum:
    """The datum of a JSON object; any malformed input raises DatumFormatError
    with the message of its first failing check."""
    try:
        return _datum_from_dict(data)
    except RecursionError:  # repr() of a value nested about a thousand deep
        raise DatumFormatError("a JSON value is nested too deeply") from None
    except ValueError as e:  # a field, group, word or scalar that does not parse
        raise DatumFormatError(str(e)) from None


def _datum_from_dict(data):
    _require(isinstance(data, dict), "datum must be a JSON object")
    if data.keys() != _TOP_FIELDS:
        unknown, missing = sorted(set(data) - _TOP_FIELDS), sorted(_TOP_FIELDS - set(data))
        raise DatumFormatError(f"unknown fields: {unknown}" if unknown else f"missing fields: {missing}")

    theta = data["theta"]
    _require(_is_int(theta) and theta >= 1, "theta must be a positive integer")
    _require(theta <= MAX_THETA, "theta %s is above the limit %s", theta, MAX_THETA)

    fspec = data["field"]
    _require(isinstance(fspec, dict) and len(fspec) == 1 and _is_int(*fspec.values()), _FIELD_SPEC)
    if "cyclotomic" in fspec:
        m = fspec["cyclotomic"]
        _require(m <= MAX_CONDUCTOR, "conductor %s is above the limit %s", m, MAX_CONDUCTOR)
        field = CycloField(m)
    elif "prime" in fspec:
        p = fspec["prime"]
        _require(p <= MAX_PRIME, "prime %s is above the limit %s", p, MAX_PRIME)
        field = PrimeField(p)
    else:
        raise DatumFormatError(_FIELD_SPEC)

    gspec = data["group"]
    _require(isinstance(gspec, dict) and gspec.keys() <= {"torsion", "free_rank"}, "bad group spec")
    torsion, free_rank = gspec.get("torsion", []), gspec.get("free_rank", 0)
    _require(_is_int_list(torsion) and _is_int(free_rank), "group torsion is a list of integers, free_rank an integer")
    # GroupSpec builds a tuple of free_rank entries
    _require(free_rank <= MAX_FREE_RANK, "free rank %s is above the limit %s", free_rank, MAX_FREE_RANK)
    group = GroupSpec(tuple(torsion), free_rank)
    order = math.prod(group.torsion)
    _require(order <= MAX_GROUP_ORDER, "group torsion order %s is above the limit %s", order, MAX_GROUP_ORDER)

    g_list = data["g"]
    _require(
        isinstance(g_list, list) and len(g_list) == theta and all(map(_is_int_list, g_list)),
        "g must list theta integer exponent vectors",
    )
    g = tuple(map(group.element, g_list))

    chi_list = data["chi"]
    _require(isinstance(chi_list, list) and len(chi_list) == theta, "chi must list theta characters")
    n = group.nfactors
    _require(
        all(_is_int_list(v) and len(v) == n for v in chi_list),
        "each character is a list of integer root exponents, one per group factor",
    )
    chi = tuple(map(tuple, chi_list))

    _require(isinstance(data["L"], list), "L must be a list of words")
    L_words = list(map(_word, data["L"]))
    _require(len(set(L_words)) == len(L_words), "duplicate members in L")
    # validate() takes time quadratic in the length of a member
    longest = max(map(len, L_words), default=0)
    _require(longest <= MAX_MEMBER_LETTERS, "a member of L has %s letters, above the limit %s", longest, MAX_MEMBER_LETTERS)
    L = tuple(sorted(L_words))

    heights = {}
    for k, v in _mapping(data, "heights").items():
        w = _word(k)
        if v == "inf":
            heights[w] = None
        else:
            _require(_is_int(v) and v >= 1, "height of %s must be a positive integer or 'inf'", k)
            _require(v <= MAX_HEIGHT, "height %s of %s is above the limit %s", v, k, MAX_HEIGHT)
            heights[w] = v

    def poly(obj, kind, key):
        if not isinstance(obj, list):
            raise DatumFormatError(f"{kind}[{key}] must be a list of terms")
        p = NCPoly()
        for t in obj:
            if not isinstance(t, dict) or t.keys() != _TERM_FIELDS:
                raise DatumFormatError(f"bad term in {kind}[{key}]")
            letters, grp, lit = t["word"], t["grp"], t["coeff"]
            if not isinstance(letters, list):
                raise DatumFormatError(f"a term word in {kind}[{key}] must be a list of words")
            if not _is_int_list(grp):
                raise DatumFormatError(f"a term group element in {kind}[{key}] must be a list of integers")
            p.add_term((tuple(map(_word, letters)), group.element(grp)), parse_scalar_literal(lit, field))
        return p

    reds = {_word(k): poly(v, "reds", k) for k, v in _mapping(data, "reds").items()}
    redhats = {_word(k): poly(v, "redhats", k) for k, v in _mapping(data, "redhats").items()}

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
    """The datum of a JSON file, read as open(path, encoding="utf-8") reads
    it, with universal newlines, but without the cost of a text stream."""
    with open(path, "rb", buffering=0) as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: arrays nested about a thousand deep
        raise DatumFormatError(f"not a JSON file: {e}") from e
    return datum_from_dict(data)


def save_datum(d: Datum, path):
    """Write d to path, serialized in full first: a datum that cannot be
    written leaves no partial file."""
    text = json.dumps(datum_to_dict(d), indent=1, sort_keys=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
