"""The representation of exact rationals: a value berklip computes is an
``int`` when it is integral and a ``Fraction`` otherwise, never a
``float`` or a ``bool``.  A true division of two ints would give a float,
so the source holds none; the results of every entry point hold only
ints, ``Fraction``s, strings and None at their leaves."""

import ast
from fractions import Fraction
from pathlib import Path

from berklip.invariants import bundle, gpr
from berklip.lipschitz import bound_report, radial_profile, segment_lip
from berklip.sampling import DetRng
from corpus import acceptance_corpus, random_ladder_map

SRC = Path(__file__).resolve().parent.parent / "src" / "berklip"


def test_src_has_no_true_division():
    """No ``/`` or ``/=`` in ``src/berklip``: an exact quotient of two
    integers is ``valued._quotient``, and ``//`` divides exactly."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        ]
    assert not found, found


def _leaves(x):
    """The leaves of a result: the fields of its records, tuples and
    lists, recursively."""
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def test_results_hold_only_ints_and_fractions():
    """Every leaf of the results of ``bundle``, ``gpr`` (argmin and
    preimages), ``bound_report``, ``radial_profile`` and ``segment_lip``
    is an int, a ``Fraction``, a string or None, on the acceptance corpus
    and on ladder-type maps of degree 10 and 20: never a float or a
    bool.  Both ints and ``Fraction``s occur among the values."""
    rng = DetRng(3535)
    maps = acceptance_corpus() + [random_ladder_map(rng, 3, d) for d in (10, 10, 20, 20)]
    kinds = {int: 0, Fraction: 0, str: 0, type(None): 0}
    for k, m in enumerate(maps):
        b = bundle(m)
        result = gpr(m)
        rep = bound_report(m, n=200, seed=k, b0_ord=Fraction(1, 2))
        results = [b, result.argmin, result.preimages, rep]
        for center in (0, b.gpr_argmin.center):
            prof = radial_profile(m, center, 0)
            results += [prof, segment_lip(prof)]
        for leaf in _leaves(results):
            assert type(leaf) in kinds, (m, type(leaf), leaf)
            kinds[type(leaf)] += 1
    assert kinds[int] >= 1000 and kinds[Fraction] >= 100, kinds
