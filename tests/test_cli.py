"""Command line front end: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path
from time import process_time

from berklip.cli import MAX_INPUT_BYTES, main

FIXTURES = Path(__file__).parent.parent / "fixtures"


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_invariants_on_worked_example(capsys):
    code, out = run_cli(capsys, "invariants", "--input", str(FIXTURES / "square_shift_p3.json"))
    assert code == 0
    data = json.loads(out)
    assert data["gir"]["ord"] == "4"
    assert data["rp"]["ord"] == "1"
    assert data["gpr"]["ord"] == "3"
    assert data["res"]["ord"] == "8"
    assert data["gir"]["value"] == "3^-4"
    assert data["gpr_argmin"]["type"] == "II"


def test_invariants_without_factored_form(capsys):
    code, out = run_cli(capsys, "invariants", "--input", str(FIXTURES / "coeffs_only_p3.json"))
    assert code == 0
    data = json.loads(out)
    assert data["rp"] is None and data["gpr"] is None
    assert data["res"]["ord"] == "0"


def test_bounds_mobius_all_equal(capsys):
    code, out = run_cli(
        capsys, "bounds", "--input", str(FIXTURES / "mobius_z_over_9_p3.json"), "--n", "200"
    )
    assert code == 0
    data = json.loads(out)
    vals = {
        key: data[key]["terms"]
        for key in (
            "lip_classical",
            "resultant_bound_classical",
            "mobius_exact",
            "invariant_bound_rp",
        )
    }
    assert all(v == [{"coef": "1", "exp": "2"}] for v in vals.values())
    assert data["resultant_bound_berk"]["terms"] == [{"coef": "1", "exp": "2"}]
    assert data["lip_classical"]["decimal_note"] == "display only"


def test_bounds_requires_factored(capsys):
    code, _ = run_cli(capsys, "bounds", "--input", str(FIXTURES / "coeffs_only_p3.json"))
    assert code == 3


def test_profile_and_sample_commands(capsys):
    code, out = run_cli(
        capsys, "profile", "--input", str(FIXTURES / "square_p3.json"), "--center", "0", "--tmin", "0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["segments"] == [{"t_hi": "0", "t_lo": None, "coeff_ord": "0", "k": 2}]
    code, out = run_cli(
        capsys, "sample", "--input", str(FIXTURES / "square_shift_p3.json"),
        "--n", "300", "--seed", "9",
    )
    assert code == 0
    data = json.loads(out)
    assert data["max_ratio"]["terms"][0]["exp"] in {"0", "1", "2", "3"}


def test_verify_identity_passes(capsys):
    code, out = run_cli(capsys, "verify", "--input", str(FIXTURES / "identity_p3.json"), "--n", "200")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS invariant-chain" in out
    assert "PASS mobius-constants-agree" in out


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["invariants", "--input", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["invariants", "--input", str(missing)]) == 1
    wrong_p = tmp_path / "wrong_p.json"
    wrong_p.write_text(json.dumps({"p": 4, "coeffs": {"F": ["1", "0"], "G": ["0", "1"]}}))
    assert main(["invariants", "--input", str(wrong_p)]) == 1
    capsys.readouterr()


def _parse_failure(tmp_path, capsys, data) -> str:
    """Run invariants on ``data``; expect exit 1 and return the one-line message."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(data))
    assert main(["invariants", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_numeric_coefficients_are_parse_errors(tmp_path, capsys):
    msg = _parse_failure(tmp_path, capsys, {"p": 3, "coeffs": {"F": [1, 0], "G": ["0", "1"]}})
    assert "bad rational 1" in msg
    _parse_failure(tmp_path, capsys, {"p": 3, "coeffs": {"F": ["1", "0"], "G": [0.5, "1"]}})
    _parse_failure(tmp_path, capsys, {"p": 3, "factored": {"C": 1, "zeros": [], "poles": []}})
    _parse_failure(
        tmp_path, capsys, {"p": 3, "factored": {"C": "1", "zeros": [[0, 1]], "poles": [["inf", 1]]}}
    )


def test_oversized_integers_hit_the_digit_cap(tmp_path, capsys):
    """A numerator or denominator of more than 4300 digits exits 6 with one
    short line on every Python, and 4000 digits still parse.  A bad
    rational's message echoes at most 40 characters of it."""
    path = tmp_path / "map.json"
    for big in ("1" + "0" * 5000, "1/" + "7" * 5001):
        path.write_text(json.dumps({"p": 3, "coeffs": {"F": [big, "1"], "G": ["1", "0"]}}))
        assert main(["invariants", "--input", str(path)]) == 6
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, captured.err[:200]
        assert lines[0].startswith("error: resource limit: ") and len(lines[0]) < 120
    path.write_text(json.dumps({"p": 3, "coeffs": {"F": ["1" + "0" * 3999, "1"], "G": ["1", "0"]}}))
    assert main(["invariants", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 1
    for bad in ("x" * 5000, "1/" + "0" * 4000, 10**4000):
        msg = _parse_failure(tmp_path, capsys, {"p": 3, "coeffs": {"F": [bad, "1"], "G": ["1", "0"]}})
        assert "bad rational" in msg and len(msg) < 120, msg[:200]


def _unscreened(digits: int) -> int:
    """A number of ``digits`` digits that no small prime divides, so the
    primality test reaches its bound instead of a small factor."""
    from berklip.valued import _SMALL_PRIMES

    n = 10 ** (digits - 1) + 1
    while any(n % q == 0 for q in _SMALL_PRIMES):
        n += 2
    return n


def test_oversized_json_and_option_integers(tmp_path, capsys):
    """A JSON integer or an integer option of more than 4300 digits exits 6
    on every Python, and every message that echoes an input integer clips
    it: each case prints one stderr line under 120 bytes, no traceback.
    So does every echo of argparse (an unknown command, a bad --format
    value, an unknown option) and of the --input path, each clipped to 40
    characters; an unknown command's line also lists the five commands,
    which takes it to 152 bytes."""
    ones = "1" * 5001
    coeffs = '"coeffs": {"F": ["1", "0"], "G": ["0", "1"]}'
    nines = "9" * 4300
    files = {
        "big_p": '{"p": %s, %s}' % (ones, coeffs),
        "big_mult": '{"p": 3, "factored": {"C": "1", "zeros": [["0", %s]]}}' % ones,
        "composite_p": '{"p": %s, %s}' % ("1" * 4000, coeffs),
        "unscreened_p": '{"p": %d, %s}' % (_unscreened(4000), coeffs),
        "mult_sum": '{"p": 3, "factored": {"C": "1", "zeros": [["0", %s], ["1", %s]]}}'
        % (nines, nines),
        "no_p": "{%s}" % coeffs,
        "p3": '{"p": 3, %s}' % coeffs,
    }
    cases = [
        ("big_p", [], 6, "resource limit: an integer has more than 4300 digits"),
        ("big_mult", [], 6, "resource limit: an integer has more than 4300 digits"),
        ("p3", ["--p", ones], 6, "resource limit: an integer has more than 4300 digits"),
        ("p3", ["--seed", ones], 6, "resource limit"),
        ("p3", ["--n", "-" + ones], 6, "resource limit"),
        ("p3", ["--p", "x" * 5000], 1, "argument --p: invalid int value: 'xxx"),
        ("p3", ["--seed", "1_000"], 1, "argument --seed: invalid int value: '1_000'"),
        ("p3", ["--n", "1" * 3000], 1, "--n must be <= 100000, not 111"),
        ("p3", ["--n", "-" + "1" * 3000], 1, "--n must be >= 1 for sample, not -111"),
        ("p3", ["--p", "1" * 4000], 1, "p mismatch: file has 3, configuration has 111"),
        ("composite_p", [], 1, " is not prime"),
        ("no_p", ["--p", "1" * 4000], 1, " is not prime"),
        ("unscreened_p", [], 1, "prime candidate 1000"),
        ("no_p", ["--p", str(_unscreened(4000))], 1, "exceeds the deterministic test bound"),
        ("mult_sum", [], 1, "degree 999"),
        ("p3", ["--tmin", "-" + "1" * 3000], 1, "--tmin must be >= 0, not -111"),
        ("p3", ["--b0-ord", "1" * 3000], 1, "--b0-ord must be <= 64, not 111"),
    ]
    path = tmp_path / "map.json"
    for name, opts, code, expected in cases:
        path.write_text(files[name])
        assert main(["sample", "--input", str(path), *opts]) == code, (name, opts[:1])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, (name, opts[:1], captured.err[:200])
        assert lines[0].startswith("error: ") and expected in lines[0], (name, lines[0][:200])
        assert len(lines[0].encode()) < 120, (name, opts[:1], lines[0][:200])
    path.write_text(files["p3"])
    deep = tmp_path.joinpath(*["d" * 200] * 5)
    deep.mkdir(parents=True)
    (deep / "map.json").write_text("x")
    echoes = [
        (["b" * 5000, "--input", str(path)], "invalid choice: 'bbb", 160),
        (["sample", "--input", str(path), "--format", "f" * 5000], "invalid choice: 'fff", 120),
        (["sample", "--input", str(path), "--" + "o" * 5000], "unrecognized arguments: --ooo", 120),
        (["sample", "--input", str(tmp_path / ("x" * 3000))], "cannot read ", 120),
        (["sample", "--input", str(deep / "map.json")], "invalid JSON in ", 120),
    ]
    for args, expected, limit in echoes:
        assert main(args) == 1, expected
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, (expected, captured.err[:200])
        assert lines[0].startswith("error: ") and expected in lines[0], lines[0][:200]
        assert len(lines[0].encode()) < limit and "..." in lines[0], (expected, lines[0][:200])


def _one_line_error(capsys, args, code: int) -> str:
    """Run ``args``; expect ``code``, no stdout and one stderr line."""
    assert main(args) == code, args
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err[:200]
    assert lines[0].startswith("error: ") and len(lines[0].encode()) < 120, lines[0][:200]
    return lines[0]


def test_input_that_is_not_text_or_too_large(tmp_path, capsys):
    """A map file that is not UTF-8 is a parse error, and one past the size
    cap exits 6 after reading at most one byte more than the cap; each
    prints one line.  The large files are sparse, so nothing fills the
    disk, and a file at the cap is still read (as bad JSON here)."""
    path = tmp_path / "map.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    line = _one_line_error(capsys, ["invariants", "--input", str(path)], 1)
    assert "is not UTF-8 text" in line
    with open(path, "wb") as f:
        f.truncate(MAX_INPUT_BYTES + 1)
    line = _one_line_error(capsys, ["invariants", "--input", str(path)], 6)
    assert line.startswith("error: resource limit: ") and f"more than {MAX_INPUT_BYTES}" in line
    with open(path, "wb") as f:
        f.truncate(MAX_INPUT_BYTES)
    assert "invalid JSON in " in _one_line_error(capsys, ["invariants", "--input", str(path)], 1)


def test_echoed_control_characters_stay_on_one_line(tmp_path, capsys, monkeypatch):
    """A path with a newline, missing or holding bad JSON, is echoed with
    the newline escaped: one stderr line, exit 1."""
    monkeypatch.chdir(tmp_path)
    name = "x\ny"
    line = _one_line_error(capsys, ["invariants", "--input", name], 1)
    assert line.startswith("error: cannot read x\\ny: ")
    (tmp_path / name).write_text("{")
    line = _one_line_error(capsys, ["sample", "--input", name], 1)
    assert line.startswith("error: invalid JSON in x\\ny: ")


def test_non_list_blocks_are_parse_errors(tmp_path, capsys):
    msg = _parse_failure(tmp_path, capsys, {"p": 3, "coeffs": {"F": "123", "G": "456"}})
    assert "'F' must be a JSON list" in msg
    _parse_failure(tmp_path, capsys, {"p": 3, "coeffs": {"F": ["1", "0"], "G": {"0": "1"}}})
    for key in ("zeros", "poles"):
        block = {"C": "1", "zeros": [["0", 1]], "poles": [["inf", 1]]}
        block[key] = "01"
        msg = _parse_failure(tmp_path, capsys, {"p": 3, "factored": block})
        assert f"'{key}' must be a JSON list" in msg
    # an entry that is a string of length two, and a fractional multiplicity
    _parse_failure(
        tmp_path, capsys, {"p": 3, "factored": {"C": "1", "zeros": ["01"], "poles": [["inf", 1]]}}
    )
    _parse_failure(
        tmp_path, capsys, {"p": 3, "factored": {"C": "1", "zeros": [["0", 1.5]], "poles": [["inf", 1]]}}
    )


def test_ambiguous_map_files_are_parse_errors(tmp_path, capsys):
    """Both blocks in one file, or a key the format does not define, exit 1
    with one line that names the key, clipped; the first file below once
    printed the invariants of z, read from its coeffs block alone."""
    coeffs = {"F": ["1", "0"], "G": ["0", "1"]}
    factored = {"C": "1", "zeros": [["1", 1], ["2", 1]], "poles": [["inf", 2]]}
    msg = _parse_failure(tmp_path, capsys, {"p": 3, "coeffs": coeffs, "factored": factored})
    assert msg == "error: map file has both a 'coeffs' and a 'factored' block"
    cases = [
        ({"p": 3, "coeffs": {**coeffs, "H": ["1"]}, "q": 5}, "'q' in the map file"),
        ({"p": 3, "coeffs": {**coeffs, "H": ["1"]}}, "'H' in the coeffs block"),
        ({"p": 3, "factored": {**factored, "c": "1"}}, "'c' in the factored block"),
        ({"p": 3, "factored": factored, "F": ["1", "0"]}, "'F' in the map file"),
        ({"p": 3, "coeffs": coeffs, "P": 3}, "'P' in the map file"),
        ({"p": 3, "coeffs": coeffs, "x\n" + "k" * 100: 1}, "unknown key 'x\\nkkk"),
    ]
    for data, expected in cases:
        msg = _parse_failure(tmp_path, capsys, data)
        assert msg.startswith("error: unknown key ") and expected in msg, (data, msg)
        assert len(msg.encode()) < 120, msg


def test_prime_is_checked(tmp_path, capsys):
    coeffs = {"F": ["1", "0"], "G": ["0", "1"]}
    msg = _parse_failure(tmp_path, capsys, {"p": 15, "coeffs": coeffs})
    assert msg == "error: 15 is not prime"
    # a strong pseudoprime to the bases 2..37, below the bound
    msg = _parse_failure(tmp_path, capsys, {"p": 318665857834031151167461, "coeffs": coeffs})
    assert msg == "error: 318665857834031151167461 is not prime"
    # past the bound of the deterministic test, even for a prime
    p = 2**89 - 1
    msg = _parse_failure(tmp_path, capsys, {"p": p, "coeffs": coeffs})
    assert msg == f"error: prime candidate {p} exceeds the deterministic test bound"


def test_zero_multiplicity_is_parse_error(tmp_path, capsys):
    for mult in (0, -1):
        block = {"C": "1", "zeros": [["0", mult], ["1", 1]], "poles": [["inf", 1]]}
        msg = _parse_failure(tmp_path, capsys, {"p": 3, "factored": block})
        assert "multiplicity must be >= 1" in msg


def test_bad_option_values_are_parse_errors(tmp_path, capsys):
    """Each option is checked before the map file is read: the input does
    not exist, yet the message names the option."""
    missing = str(tmp_path / "missing.json")
    cases = [
        (["profile", "--tmin", "-1"], "--tmin must be >= 0"),
        (["profile", "--tmin", "-1/3"], "--tmin must be >= 0"),
        (["profile", "--center", "1/0"], "--center: bad rational"),
        (["sample", "--n", "0"], "--n must be >= 1 for sample"),
        (["verify", "--n", "0"], "--n must be >= 1 for verify"),
        (["bounds", "--n", "-5"], "--n must be >= 0 for bounds"),
        (["bounds", "--b0-ord", "-1"], "--b0-ord must be >= 0"),
        (["bounds", "--b0-ord", "-1/2"], "--b0-ord must be >= 0"),
        (["bounds", "--b0-ord", "x"], "--b0-ord: bad rational"),
        (["bounds", "--b0-ord", "65"], "--b0-ord must be <= 64, not 65"),
        (["bounds", "--b0-ord", "1000000"], "--b0-ord must be <= 64"),
        (["bounds", "--b0-ord", "129/2"], "--b0-ord must be <= 64, not 129/2"),
    ]
    for args, expected in cases:
        assert main([*args, "--input", missing]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and expected in lines[0], (args, lines)
    # zero samples stay valid for bounds: the report then has no sampled ratio
    code, out = run_cli(
        capsys, "bounds", "--input", str(FIXTURES / "square_shift_p3.json"), "--n", "0"
    )
    assert code == 0 and json.loads(out)["sampled_max_ratio"] is None


def test_profile_center_digit_cap(tmp_path, capsys):
    """A --center whose reduced numerator or denominator has more than 100
    digits exits 6 before the map is read, well under a second even on a
    degree-64 map; at 100 digits the profile runs."""
    path = tmp_path / "deg64.json"
    path.write_text(json.dumps({"p": 3, "factored": {
        "C": "1",
        "zeros": [[str(k), 1] for k in range(1, 65)],
        "poles": [[f"-{k}/2", 1] for k in range(1, 65)],
    }}))
    big = "7" * 101
    for center in (big, f"-{big}", f"1/{big}", f"{big}/2"):
        start = process_time()
        line = _one_line_error(capsys, ["profile", "--input", str(path), f"--center={center}"], 6)
        assert process_time() - start < 0.5
        assert line.startswith("error: resource limit: --center ") and "100 digits" in line, line
    # the reduced form counts: the second center is 7
    for center in (f"{'7' * 100}/{'1' * 99}3", f"{big}/{'1' * 101}"):
        code, out = run_cli(
            capsys, "profile", "--input", str(FIXTURES / "square_shift_p3.json"),
            f"--center={center}", "--tmin", "1",
        )
        assert code == 0 and json.loads(out)["segments"], center


def test_internal_invariant_error_exit_code(monkeypatch, capsys):
    from berklip import cli
    from berklip.errors import InternalInvariantError

    def broken(m):
        raise InternalInvariantError("invariant chain violated")

    monkeypatch.setattr(cli, "bundle", broken)
    assert main(["invariants", "--input", str(FIXTURES / "square_p3.json")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal invariant violated: invariant chain violated\n"


def test_enclosure_cap_exits_cleanly(monkeypatch, capsys):
    """A p-power sum whose enclosure reaches the working-precision cap
    ends in exit 6 with one line that names the cap, not a traceback."""
    from berklip import valued

    monkeypatch.setattr(valued, "_MAX_DECIMAL_PREC", 10)
    args = ["bounds", "--input", str(FIXTURES / "square_shift_p3.json"), "--b0-ord", "1/1009"]
    assert main(args) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: resource limit: p-power sum enclosure reached the "
        "working-precision cap _MAX_DECIMAL_PREC = 10 digits"
    ]


def test_bounds_degree_64_at_huge_exponent_denominator(tmp_path, capsys):
    """The invariant bound of z -> 3^5 z^64 at B0 = 1/100003 compares two
    one-term sums whose exponent denominators have lcm 6,400,192; that
    compare took 24.5 s through integer powers.  The terms and decimal are
    the output recorded before the change."""
    path = tmp_path / "deg64.json"
    path.write_text(json.dumps(
        {"p": 3, "factored": {"C": "243", "zeros": [["0", 64]], "poles": [["inf", 64]]}}
    ))
    start = process_time()
    code, out = run_cli(capsys, "bounds", "--input", str(path), "--b0-ord", "1/100003")
    assert process_time() - start < 1.0
    assert code == 0
    got = json.loads(out)["invariant_bound_user_b0"]
    assert got["terms"] == [{"coef": "1", "exp": "500079/100003"}]
    assert got["decimal"] == "243.170911134"


def test_exit_code_p_mismatch(capsys):
    code = main(["invariants", "--input", str(FIXTURES / "square_shift_p3.json"), "--p", "5"])
    assert code == 1
    capsys.readouterr()


def test_exit_code_degenerate(tmp_path, capsys):
    degen = tmp_path / "degen.json"
    degen.write_text(json.dumps({"p": 3, "coeffs": {"F": ["1", "1"], "G": ["2", "2"]}}))
    assert main(["invariants", "--input", str(degen)]) == 2
    capsys.readouterr()


def test_all_zero_map_is_degenerate(tmp_path, capsys):
    """The coprimality test rejects an all-zero pair before normalization
    looks for a coefficient of least valuation."""
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"p": 3, "coeffs": {"F": ["0", "0"], "G": ["0", "0"]}}))
    for cmd in ("invariants", "verify"):
        assert main([cmd, "--input", str(zero)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: degenerate map"]


def test_output_is_byte_deterministic(capsys):
    args = [
        "bounds", "--input", str(FIXTURES / "square_shift_p3.json"),
        "--n", "400", "--seed", "123",
    ]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_round_trips_through_json(capsys):
    code = main(["invariants", "--input", str(FIXTURES / "square_shift_p5.json")])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    again = json.dumps(data, sort_keys=True, indent=2)
    assert json.loads(again) == data


def test_table_format(capsys):
    code, out = run_cli(
        capsys, "invariants", "--input", str(FIXTURES / "square_shift_p3.json"),
        "--format", "table",
    )
    assert code == 0
    assert "gir.ord" in out and "4" in out


def test_point_serialization_round_trip():
    from fractions import Fraction

    from berklip.berk import BerkPoint
    from berklip.projective import ProjPoint
    from berklip.serialize import berk_point_json
    from oracles import berk_point_from_json

    for x in (
        BerkPoint.classical(ProjPoint.parse("inf")),
        BerkPoint.classical(ProjPoint.of(Fraction(-7, 9))),
        BerkPoint.disc(Fraction(1, 3), Fraction(5, 2)),
    ):
        assert berk_point_from_json(berk_point_json(x)) == x


def test_factored_requires_error_surface():
    import pytest as _pytest

    from berklip.errors import FactoredFormRequiredError
    from berklip.ratmap import from_coeffs, resultant_ord_product

    m = from_coeffs(3, [1, 1, 1], [1, 0, 0])
    with _pytest.raises(FactoredFormRequiredError):
        resultant_ord_product(m)


def test_bad_command_lines_are_parse_errors(tmp_path, capsys):
    """argparse's own errors exit 1 with one line, not 2 with a usage dump."""
    fixture = str(FIXTURES / "square_p3.json")
    cases = [
        (["bogus", "--input", fixture], "invalid choice: 'bogus'"),
        (["sample", "--input", fixture, "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["invariants"], "the following arguments are required: --input"),
        (["invariants", "--input", fixture, "--unknown"], "unrecognized arguments: --unknown"),
    ]
    for args, expected in cases:
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and expected in lines[0], lines


def test_verify_computes_gpr_once(count_calls, capsys):
    """verify reads gpr and rp from one bundle: the chain check, the argmin
    check, the rp check, the sampler's bound and the degree-1 cross-check
    share it."""
    from berklip.invariants import gpr, rp_ord

    calls = count_calls(gpr)
    rps = count_calls(rp_ord)
    for name in ("mobius_z_over_9_p3.json", "square_shift_p3.json", "sharp_family_d3_k1_p5.json"):
        calls.clear()
        rps.clear()
        code, out = run_cli(capsys, "verify", "--input", str(FIXTURES / name), "--n", "50")
        assert code == 0 and "FAIL" not in out
        assert len(calls) == len(rps) == 1, name


def test_negative_rational_option_value(capsys):
    """A negative rational is read as an option value whether it follows
    the option as its own word or after "=" (negative --tmin and --b0-ord
    values fail their own checks, in test_bad_option_values_are_parse_errors)."""
    fixture = str(FIXTURES / "coeffs_only_p3.json")
    spaced = run_cli(capsys, "profile", "--input", fixture, "--center", "-1/3")
    joined = run_cli(capsys, "profile", "--input", fixture, "--center=-1/3")
    assert spaced == joined
    assert spaced[0] == 0 and json.loads(spaced[1])["center"] == "-1/3"


_FOOTPRINT = """
import contextlib, io, sys
import berklip.cli
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = berklip.cli.main(["invariants", "--input", sys.argv[1]])
print(code, sorted(m for m in sys.modules
                  if m in ("berklip.lipschitz", "berklip.sampling", "berklip.piecewise")))
"""


def test_import_footprint():
    """Start-up loads no dataclass machinery, and ``invariants`` loads
    neither the Lipschitz layer, the sampler nor the piecewise calculus.  ``python -S`` skips the
    site hooks, so only the interpreter and berklip load modules."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, str(FIXTURES / "square_shift_p3.json")],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.splitlines() == ["[]", "0 []"]
