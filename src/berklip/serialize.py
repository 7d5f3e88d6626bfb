"""JSON forms for every public value type and the map input file.

Map files carry either homogeneous coefficients (highest degree first) or
a factored form, never both and no key beyond these:

    {"p": 3, "coeffs": {"F": ["9", "0", "-1"], "G": ["9", "0", "0"]}}
    {"p": 3, "factored": {"C": "1",
                          "zeros": [["1/3", 1], ["-1/3", 1]],
                          "poles": [["inf", 2]]}}

Rationals serialize as "num/den" with the denominator omitted when 1;
valuation exponents additionally render a display value "p^-t".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .berk import BerkPoint
from .errors import ParseError
from .projective import ProjPoint
from .ratmap import RationalMap, from_coeffs, from_factored
from .valued import (
    _clip,
    Ord,
    PPowerSum,
    format_fraction,
    is_prime,
    parse_fraction,
    ppow_decimal,
)

if TYPE_CHECKING:  # annotations only: the commands that need them load these
    from .invariants import InvariantBundle
    from .lipschitz import BoundReport, RadialProfile

__all__ = [
    "ord_json",
    "ppow_json",
    "berk_point_json",
    "bundle_json",
    "report_json",
    "profile_json",
    "parse_map_data",
]


def ord_json(p: int, o: Ord | None) -> dict | None:
    """{"ord": t, "value": "p^-t"}; the zero value renders as "0"."""
    if o is None:
        return None
    if o.is_inf:
        return {"ord": "inf", "value": "0"}
    return {"ord": format_fraction(o.frac), "value": f"{p}^{format_fraction(-o.frac)}"}


def ppow_json(p: int, s: PPowerSum | None) -> dict | None:
    if s is None:
        return None
    return {
        "terms": [
            {"coef": format_fraction(c), "exp": format_fraction(e)} for c, e in s.terms
        ],
        "decimal": ppow_decimal(p, s),
        "decimal_note": "display only",
    }


def berk_point_json(x: BerkPoint | None) -> dict | None:
    if x is None:
        return None
    if x.is_classical:
        return {"type": "I", "pt": str(x.pt)}
    return {
        "type": "II",
        "center": format_fraction(x.center),
        "radius_ord": format_fraction(x.radius_ord),
    }


def bundle_json(b: InvariantBundle) -> dict:
    return {
        "p": b.p,
        "degree": b.d,
        "gir": ord_json(b.p, b.gir),
        "res": ord_json(b.p, b.res),
        "rp": ord_json(b.p, b.rp),
        "gpr": ord_json(b.p, b.gpr),
        "gpr_argmin": berk_point_json(b.gpr_argmin),
        "b0_lower": ord_json(b.p, b.b0_lower),
        "note": b.note,
    }


def _pair_json(pair) -> list | None:
    if pair is None:
        return None
    return [str(pair[0]), str(pair[1])]


def report_json(r: BoundReport) -> dict:
    return {
        "p": r.p,
        "degree": r.d,
        "lip_classical": ppow_json(r.p, r.lip_classical),
        "resultant_bound_classical": ppow_json(r.p, r.resultant_bound_classical),
        "resultant_bound_berk": ppow_json(r.p, r.resultant_bound_berk),
        "invariant_bound_rp": ppow_json(r.p, r.invariant_bound_rp),
        "invariant_bound_rp_coarse": ppow_json(r.p, r.invariant_bound_rp_coarse),
        "invariant_bound_user_b0": ppow_json(r.p, r.invariant_bound_user_b0),
        "mobius_exact": ppow_json(r.p, r.mobius_exact),
        "sampled_max_ratio": ppow_json(r.p, r.sampled_max_ratio),
        "sample_witness": _pair_json(r.sample_witness),
        "gpr_witness": _pair_json(r.gpr_witness),
        "gpr_witness_note": r.gpr_witness_note,
    }


def profile_json(pr: RadialProfile) -> dict:
    return {
        "p": pr.p,
        "center": format_fraction(pr.center),
        "t_min": format_fraction(pr.t_min),
        "segments": [
            {
                "t_hi": format_fraction(s.t_hi),
                "t_lo": None if s.t_lo is None else format_fraction(s.t_lo),
                "coeff_ord": format_fraction(s.coeff_ord),
                "k": s.k,
            }
            for s in pr.segments
        ],
    }


def _json_list(block: dict, key: str) -> list:
    value = block[key]
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a JSON list, not {type(value).__name__}")
    return value


# Largest degree a map file may give: a bundle at this degree already takes
# seconds, and a multiplicity of 10^9 would otherwise be expanded term by term.
MAX_DEGREE = 64


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise ParseError(f"degree {_clip(str(d))} exceeds the supported maximum {MAX_DEGREE}")


def _bad_entry(entry, why: str) -> ParseError:
    return ParseError(f"bad zero/pole entry {_clip(repr(entry))}: {why}")


def _parse_point_mult(entry) -> tuple[ProjPoint, int]:
    if not (isinstance(entry, list) and len(entry) == 2):
        raise _bad_entry(entry, "expected [point, multiplicity]")
    pt, mult = entry
    if type(mult) is not int:
        raise _bad_entry(entry, "multiplicity must be an integer")
    if mult < 1:
        raise _bad_entry(entry, "multiplicity must be >= 1")
    _check_degree(mult)  # alone, so that no sum of multiplicities is a huge number to echo
    return ProjPoint.parse(pt), mult


def _check_keys(obj, allowed: tuple[str, ...], where: str) -> None:
    """A key outside ``allowed`` is a parse error, never ignored."""
    if isinstance(obj, dict):
        for key in obj:
            if key not in allowed:
                raise ParseError(f"unknown key {_clip(repr(key))} in {where}")


def parse_map_data(data: dict, p_override: int | None = None) -> RationalMap:
    """Build a RationalMap from a parsed input file object: ``p`` and
    exactly one of the blocks ``coeffs`` and ``factored``, no other key."""
    if not isinstance(data, dict):
        raise ParseError("map file must contain a JSON object")
    _check_keys(data, ("p", "coeffs", "factored"), "the map file")
    if "coeffs" in data and "factored" in data:
        raise ParseError("map file has both a 'coeffs' and a 'factored' block")
    _check_keys(data.get("coeffs"), ("F", "G"), "the coeffs block")
    _check_keys(data.get("factored"), ("C", "zeros", "poles"), "the factored block")
    p = data.get("p")
    if p is None:
        p = p_override
    elif p_override is not None and p != p_override:
        raise ParseError(
            f"p mismatch: file has {_clip(str(p))}, configuration has {_clip(str(p_override))}"
        )
    if p is None:
        raise ParseError("no prime given (file key 'p' or --p)")
    if not isinstance(p, int):
        raise ParseError("p must be an integer")
    try:
        prime = is_prime(p)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if not prime:
        raise ParseError(f"{_clip(str(p))} is not prime")
    if "coeffs" in data:
        block = data["coeffs"]
        try:
            f_desc = [parse_fraction(c) for c in _json_list(block, "F")]
            g_desc = [parse_fraction(c) for c in _json_list(block, "G")]
        except (KeyError, TypeError) as e:
            raise ParseError(f"bad coeffs block: {e}") from None
        if len(f_desc) != len(g_desc) or len(f_desc) < 2:
            raise ParseError("coefficient lists must have equal length d+1 >= 2")
        _check_degree(len(f_desc) - 1)
        return from_coeffs(p, list(reversed(f_desc)), list(reversed(g_desc)))
    if "factored" in data:
        block = data["factored"]
        try:
            c = parse_fraction(block["C"])
            zeros = [_parse_point_mult(z) for z in _json_list(block, "zeros")]
            poles = [_parse_point_mult(z) for z in _json_list(block, "poles")]
        except (KeyError, TypeError) as e:
            raise ParseError(f"bad factored block: {e}") from None
        _check_degree(max(sum(m for _, m in zeros), sum(m for _, m in poles)))
        return from_factored(p, c, zeros, poles)
    raise ParseError("map file needs a 'coeffs' or 'factored' block")
