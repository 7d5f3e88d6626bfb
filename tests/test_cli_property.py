"""Property test of the command line: whatever the map file and the flags,
``main`` returns a documented exit code, writes at most one line to
stderr and lets no exception escape.

Examples are derandomized and bounded so the test is deterministic and
fast.  Multiplicities are either small or far beyond any usable degree,
and sample counts small or far beyond the limit, so a valid example
stays cheap while the limits are still exercised.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from berklip.cli import main

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
GOOD_RATIONALS = st.tuples(
    st.integers(-20, 20), st.sampled_from([1, 2, 3, 5, 7, 9, 25])
).map(lambda nd: f"{nd[0]}/{nd[1]}")
RATIONALS = st.one_of(
    GOOD_RATIONALS,
    st.tuples(st.integers(-30, 30), st.integers(-3, 30)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    st.sampled_from(["inf", "", " 4 ", "1e999999999", "1.5", "-0", "x", "9" * 5000, "3^2"]),
)
GOOD_PRIMES = st.sampled_from([2, 3, 5, 7])
PRIMES = st.one_of(GOOD_PRIMES, st.sampled_from([1, 0, -3, 4, 2**61 - 1, 2**89 - 1]), SCALARS)
MULTIPLICITIES = st.one_of(st.integers(-2, 3), st.integers(65, 10**18), SCALARS)


def _entries(points, mults, min_size):
    return st.lists(st.tuples(points, mults).map(list), min_size=min_size, max_size=3)


def _coeffs(rationals):
    return st.integers(2, 4).flatmap(
        lambda n: st.fixed_dictionaries(
            {"F": st.lists(rationals, min_size=n, max_size=n),
             "G": st.lists(rationals, min_size=n, max_size=n)}
        )
    )


GOOD_POINTS = st.one_of(GOOD_RATIONALS, st.just("inf"))
GOOD_MAPS = st.one_of(
    st.fixed_dictionaries({"p": GOOD_PRIMES, "coeffs": _coeffs(GOOD_RATIONALS)}),
    st.fixed_dictionaries({"p": GOOD_PRIMES, "factored": st.fixed_dictionaries({
        "C": GOOD_RATIONALS,
        "zeros": _entries(GOOD_POINTS, st.integers(1, 3), 1),
        "poles": _entries(GOOD_POINTS, st.integers(1, 3), 0),
    })}),
)
ANY_MAPS = st.one_of(
    GOOD_MAPS,
    st.fixed_dictionaries({}, optional={
        "p": PRIMES,
        "coeffs": st.one_of(_coeffs(RATIONALS), ANY_JSON),
        "factored": st.one_of(
            st.fixed_dictionaries(
                {"zeros": st.one_of(_entries(RATIONALS, MULTIPLICITIES, 0), ANY_JSON),
                 "poles": st.one_of(_entries(RATIONALS, MULTIPLICITIES, 0), ANY_JSON)},
                optional={"C": RATIONALS},
            ),
            ANY_JSON,
        ),
    }),
    ANY_JSON,
)
COMMANDS = st.sampled_from(["invariants", "bounds", "profile", "sample", "verify"])
GOOD_OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("--n"), st.integers(1, 30).map(str)),
        st.tuples(st.just("--seed"), st.integers(0, 10**6).map(str)),
        st.tuples(st.just("--center"), GOOD_RATIONALS),
        st.tuples(st.sampled_from(["--tmin", "--b0-ord"]), st.sampled_from(["0", "1", "5/2"])),
        st.tuples(st.just("--format"), st.sampled_from(["json", "table"])),
    ),
    max_size=3,
)
ANY_OPTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("--n"),
            st.one_of(st.integers(-2, 20), st.integers(10**5, 10**12)).map(str),
        ),
        st.tuples(st.sampled_from(["--seed", "--p"]), st.integers(-5, 10**6).map(str)),
        st.tuples(st.sampled_from(["--center", "--tmin", "--b0-ord"]), RATIONALS),
        st.tuples(st.sampled_from(["--format", "--n", "--bogus"]), st.text(max_size=4)),
    ),
    max_size=3,
)
CASES = st.one_of(
    st.tuples(GOOD_MAPS, COMMANDS, GOOD_OPTIONS, st.just(False)),
    st.tuples(
        ANY_MAPS, st.one_of(COMMANDS, st.text(max_size=8)), ANY_OPTIONS, st.booleans()
    ),
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(case=CASES)
def test_cli_never_escapes_and_exits_with_a_documented_code(case):
    data, command, options, truncate = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.json"
        text = json.dumps(data)
        path.write_text(text[:-1] if truncate else text)  # truncated: invalid JSON
        argv = [command, "--input", str(path)] + [x for pair in options for x in pair]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in {0, 1, 2, 3, 4, 5}
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if code in (0, 4):
        assert err.getvalue() == ""
