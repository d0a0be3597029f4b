"""Exact PBW-basis toolkit for presentations of character Hopf algebras."""

from .algebra import Datum, GroupSpec, InvalidDatum, NCPoly
from .criterion import (
    bracket_table,
    check_pbw,
    forced_power_from_jacobi,
    forced_serre_from_power,
    jacobi_element,
    leibniz_gt_element,
    leibniz_le_element,
    leibniz_self_element,
)
from .datumio import datum_from_dict, datum_to_dict, load_datum, save_datum
from .oracle import quotient_rank, span_contains
from .presets import PRESET_NAMES, build_preset
from .rewrite import (
    build_rules,
    dimension,
    hilbert,
    normal_form,
    pbw_monomials,
    pbw_words,
    reduce_bounded,
)
from .scalars import (
    CycloField,
    PrimeField,
    RootOfUnity,
    binom_vanishes,
    cyclotomic_poly,
    ord_of,
    q_binomial,
    q_factorial,
    q_number,
)
from .words import (
    c_set,
    is_lyndon,
    is_shirshov_closed,
    lyndon_up_to,
    parse_word,
    prec_cmp,
    shirshov_closure,
    shirshov_decompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
