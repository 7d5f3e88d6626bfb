"""Batch command line front end.

Commands: invariants | bounds | profile | sample | verify, each reading a
map file (see serialize) and emitting JSON (default) or a plain table.
Output is byte-deterministic given the input file, options and seed.

Exit codes: 0 success, 1 parse error (bad file or bad option value),
2 degenerate map, 3 factored form required, 4 verification failure,
5 internal invariant violated (a bug), 6 resource limit reached (a valid
input that needs more than a documented cap allows).

Each command imports only what it runs: ``invariants`` reads the map and
builds its bundle, and the Lipschitz layer (``lipschitz``, with the
sampler under it) is imported by the other four commands on first use.
The Lipschitz layer takes the bundle it needs as an argument: ``bounds``
reads it inside ``bound_report``, and ``sample`` reads it for the 1/GPR
check of a factored map.  The checks of ``verify`` each call
``invariants.bundle``, which keeps the last map's bundle, so they share one.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .berk import berk_equal, diam_gauss, gauss_point, push_forward
from .errors import (
    BerkError,
    DegenerateMapError,
    FactoredFormRequiredError,
    InternalInvariantError,
    ParseError,
    ResourceLimitError,
)
from .invariants import bundle
from .ratmap import (
    RationalMap,
    gir_minors,
    normalize,
    resultant_ord,
    resultant_ord_product,
)
from .serialize import (
    MAX_DEGREE,
    bundle_json,
    parse_map_data,
    ppow_json,
    profile_json,
    report_json,
)
from .valued import _MAX_DIGITS, _clip, parse_fraction, parse_int, ppow_compare

__all__ = ["run", "main"]


# Largest sample count: the sampled pairs are held in memory at once.
MAX_SAMPLES = 100_000

# Largest --b0-ord: it bounds the size of the invariant bound's terms
# p^(gir + d*B0) and d p^(gir/d + B0), which are compared exactly and
# rendered from a Decimal enclosure.  At the cap, for a degree-64 map with
# gir = -5, both take under 1 ms at p = 3 and about 0.13 s at
# p = 2^61 - 1 (the exact rendering of p^4091), on a 2-vCPU Xeon with
# Python 3.11.  The cap does not bound the denominator: at B0 = 1/100003
# a degree-64 map's two terms have exponent denominators with lcm
# 6,400,192, and they compare and render in under 1 ms, because the
# enclosure's cost grows with the exponents' size, not their denominators.
MAX_B0_ORD = 64

# Largest number of digits in the numerator and in the denominator of the
# --center of profile: the Taylor shift to the center, and each tied
# line of f - w g read from it, grow with the center's height times the
# degree.  On the degree-64 map with zeros 1..64 and poles -k/2 at p = 3,
# the slowest center timed at the cap, 77...76 (100 digits), takes 0.23 s
# against 0.15 s at center 0 for the whole command; the profile alone
# takes 0.09 s there and 0.12 s at 77...76 with 150 digits, on a 2-vCPU
# Xeon with Python 3.11.
MAX_CENTER_DIGITS = 100

# Largest map file read, in bytes.  At the caps a map holds at most 131
# numbers: the 2 * 65 coefficients of a degree-64 map (a factored one has
# at most 129 rationals) and p.  Each is at most two 4300-digit integers
# plus 16 bytes of sign, slash, quotes, brackets, multiplicity and
# separators, 1,128,696 bytes in all; the cap is twice that, for layout.
MAX_INPUT_BYTES = 2 * (2 * (MAX_DEGREE + 1) + 1) * (2 * _MAX_DIGITS + 16)


def _option_fraction(name: str, text: str, low: int | None = None) -> Fraction:
    try:
        value = parse_fraction(text)
    except ParseError as e:
        raise ParseError(f"{name}: {e}") from None
    if low is not None and value < low:
        raise ParseError(f"{name} must be >= {low}, not {_clip(text)}")
    return value


def _check_options(cfg: argparse.Namespace) -> tuple[Fraction, Fraction, Fraction | None]:
    """Reject bad option values before the map is read; returns the parsed
    (center, tmin, b0_ord)."""
    n_min = 1 if cfg.command in ("sample", "verify") else 0
    if cfg.n < n_min:
        raise ParseError(f"--n must be >= {n_min} for {cfg.command}, not {_clip(str(cfg.n))}")
    if cfg.n > MAX_SAMPLES:
        raise ParseError(f"--n must be <= {MAX_SAMPLES}, not {_clip(str(cfg.n))}")
    center = _option_fraction("--center", cfg.center)
    if max(abs(center.numerator), center.denominator) >= 10**MAX_CENTER_DIGITS:
        raise ResourceLimitError(
            f"--center {_clip(cfg.center)} has more than {MAX_CENTER_DIGITS} digits"
        )
    tmin = _option_fraction("--tmin", cfg.tmin, 0)
    b0 = None if cfg.b0_ord is None else _option_fraction("--b0-ord", cfg.b0_ord, 0)
    if b0 is not None and b0 > MAX_B0_ORD:
        raise ParseError(f"--b0-ord must be <= {MAX_B0_ORD}, not {_clip(cfg.b0_ord)}")
    return center, tmin, b0


def _option_int(text: str) -> int:
    """``type`` of the integer options: at most 4300 digits (exit 6), and a
    bad value's echo clipped."""
    try:
        return parse_int(text)
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _load_map(cfg: argparse.Namespace) -> RationalMap:
    try:
        with open(cfg.input, "rb") as f:
            raw = f.read(MAX_INPUT_BYTES + 1)
    except OSError as e:
        raise ParseError(f"cannot read {_clip(cfg.input)}: {e.strerror}") from None
    if len(raw) > MAX_INPUT_BYTES:
        raise ResourceLimitError(f"{_clip(cfg.input)} has more than {MAX_INPUT_BYTES} bytes")
    try:
        # as a text-mode read gives it: UTF-8, with universal newlines
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"{_clip(cfg.input)} is not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    try:
        data = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {_clip(cfg.input)}: {e}") from None
    return parse_map_data(data, cfg.p)


def _emit(obj: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(obj, sort_keys=True, indent=2)
    lines = []

    def walk(prefix: str, val):
        if isinstance(val, dict):
            for k in sorted(val):
                walk(f"{prefix}{k}.", val[k])
        else:
            lines.append(f"{prefix[:-1]:<40} {val}")

    walk("", obj)
    return "\n".join(lines)


def _verify_checks(m: RationalMap, cfg: argparse.Namespace):
    """Per-map property suite for the verify command.

    Each check that needs the map's bundle calls ``bundle(m)``, which keeps
    it for the next; a bundle that fails is not kept, so each such check
    builds it again and reports the same error.
    """
    from .lipschitz import mobius_exact, resultant_bounds, sample_ratios

    checks = []

    def add(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except (BerkError, AssertionError) as e:
            checks.append((name, False, str(e)))

    def norm_idempotent():
        n1 = normalize(m)
        n2 = normalize(n1)
        assert n1 == n2, "normalize not idempotent"

    def gir_push():
        img = push_forward(m, gauss_point())
        assert diam_gauss(m.p, img) == gir_minors(m), "gir minors disagree with image"

    add("invariant-chain", lambda: bundle(m))  # raises on any violated inequality
    add("normalize-idempotent", norm_idempotent)
    add("gir-matches-pushforward", gir_push)

    if m.factored is not None:

        def res_product():
            assert resultant_ord(m) == resultant_ord_product(m), "resultant mismatch"

        def gpr_verified():
            assert berk_equal(
                m.p, push_forward(m, bundle(m).gpr_argmin), gauss_point()
            ), "gpr argmin does not map to the Gauss point"

        def rp_vs_res():
            assert bundle(m).rp <= resultant_ord(m), "RP below |Res|"

        def sampled():
            # raises if a sampled ratio exceeds 1/GPR
            sample_ratios(m, cfg.n, cfg.seed, lip_ord=bundle(m).gpr.frac)

        add("resultant-product-agrees", res_product)
        add("gpr-argmin-verified", gpr_verified)
        add("rp-dominates-resultant", rp_vs_res)
        add("sampled-ratios-bounded", sampled)
    else:

        def sampled_res_bound():
            cl, _ = resultant_bounds(m)
            s, _ = sample_ratios(m, cfg.n, cfg.seed)
            assert ppow_compare(m.p, s, cl) <= 0, "sample exceeded resultant bound"

        add("sampled-ratios-bounded", sampled_res_bound)

    if m.d == 1:
        add("mobius-constants-agree", lambda: mobius_exact(m, bundle(m)))
    return checks


def run(cfg: argparse.Namespace) -> int:
    """Execute one command, configured by the parsed command line (see
    ``_build_parser``); returns the process exit status."""
    center, tmin, b0 = _check_options(cfg)
    m = _load_map(cfg)
    if cfg.command == "invariants":
        print(_emit(bundle_json(bundle(m)), cfg.fmt))
        return 0
    from . import lipschitz

    if cfg.command == "bounds":
        if m.factored is None:
            raise FactoredFormRequiredError("factored form required")
        rep = lipschitz.bound_report(m, n=cfg.n, seed=cfg.seed, b0_ord=b0)
        print(_emit(report_json(rep), cfg.fmt))
        return 0
    if cfg.command == "profile":
        pr = lipschitz.radial_profile(m, center, tmin)
        print(_emit(profile_json(pr), cfg.fmt))
        return 0
    if cfg.command == "sample":
        # a factored map's sampled maximum is checked against 1/GPR
        lip_ord = None if m.factored is None else bundle(m).gpr.frac
        s, pair = lipschitz.sample_ratios(m, cfg.n, cfg.seed, lip_ord)
        obj = {
            "p": m.p,
            "n": cfg.n,
            "seed": cfg.seed,
            "max_ratio": ppow_json(m.p, s),
            "witness": None if pair is None else [str(pair[0]), str(pair[1])],
        }
        print(_emit(obj, cfg.fmt))
        return 0
    if cfg.command == "verify":
        checks = _verify_checks(m, cfg)
        for name, passed, detail in checks:
            tag = "PASS" if passed else "FAIL"
            suffix = f": {detail}" if detail and not passed else ""
            print(f"{tag} {name}{suffix}")
        ok = all(passed for _, passed, _ in checks)
        return 0 if ok else 4
    raise ParseError(f"unknown command {cfg.command!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a parse error (exit 1, one line)
    instead of argparse's usage dump and exit status 2, with every word
    of argparse's message (an echoed command, option or value) clipped.

    A negative rational such as ``-1/3`` is read as an option value, as
    argparse already reads ``-1`` and ``-0.5``; no option of this parser
    looks like a negative number, so nothing is shadowed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise ParseError(" ".join(_clip(word) for word in message.split()))


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="berklip",
        description="Exact invariants and Lipschitz bounds of rational maps "
        "over a p-adically valued field.",
    )
    ap.add_argument(
        "command",
        choices=["invariants", "bounds", "profile", "sample", "verify"],
    )
    ap.add_argument("--input", required=True, help="map file (JSON)")
    ap.add_argument("--p", type=_option_int, default=None, help="prime; must match the file")
    ap.add_argument("--seed", type=_option_int, default=0)
    ap.add_argument("--n", type=_option_int, default=1000, help="sample count")
    ap.add_argument("--center", default="0", help="profile ray center (rational)")
    ap.add_argument("--tmin", default="0", help="profile top radius exponent")
    ap.add_argument("--b0-ord", dest="b0_ord", default=None,
                    help="user ball-radius exponent for the invariant bound")
    ap.add_argument("--format", dest="fmt", choices=["json", "table"], default="json")
    return ap


def main(argv=None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DegenerateMapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FactoredFormRequiredError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InternalInvariantError as e:
        print(f"error: internal invariant violated: {e}", file=sys.stderr)
        return 5
    except ResourceLimitError as e:
        print(f"error: resource limit: {e}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
