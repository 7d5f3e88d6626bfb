"""The record types: immutable tuples whose hash, equality and text forms
are those the program has always shown."""

from fractions import Fraction

import pytest

from berklip.berk import BerkPoint
from berklip.invariants import GprResult, Hull, InvariantBundle
from berklip.lipschitz import BoundReport, ProfileSegment, RadialProfile
from berklip.piecewise import PWLinear
from berklip.projective import INF_POINT, ProjPoint
from berklip.ratmap import FactoredForm, RationalMap
from berklip.valued import ORD_INF, Ord, PPowerSum, ppow_term
from oracles import FiniteTree, Shift, TreeEdge


def _records():
    """One instance of every record type, with the str and repr it had
    as a frozen dataclass."""
    half = Fraction(1, 2)
    pt = ProjPoint.of(half)
    disc = BerkPoint.disc(Fraction(1, 3), 2)
    cls = BerkPoint.classical(pt)
    s = ppow_term(3, 2, Fraction(-1, 2))
    ff = FactoredForm(Fraction(1), ((pt, 1),), ((INF_POINT, 1),))
    edge = TreeEdge(disc, BerkPoint.disc(0, 0), Fraction(1, 3))
    seg = ProfileSegment(Fraction(0), None, 1, -2)
    return [
        (Ord.of(half), "1/2", "Ord(1/2)"),
        (ORD_INF, "inf", "Ord(inf)"),
        (s, "2*p^-1/2", "PPowerSum(2*p^-1/2)"),
        (pt, "1/2", "ProjPoint(1/2)"),
        (INF_POINT, "inf", "ProjPoint(inf)"),
        (disc, "zeta(1/3, t=2)", "BerkPoint(zeta(1/3, t=2))"),
        (cls, "1/2", "BerkPoint(1/2)"),
        (
            PWLinear(Fraction(0), None, ((Fraction(0), 1, -2),)),
            "PWLinear(lo=Fraction(0, 1), hi=None, pieces=((Fraction(0, 1), 1, -2),))",
            None,
        ),
        (
            ff,
            "FactoredForm(c=Fraction(1, 1), zeros=((ProjPoint(1/2), 1),), "
            "poles=((ProjPoint(inf), 1),))",
            None,
        ),
        (
            RationalMap(3, 1, (-1, 2), (2, 0), 2, 0, ff),
            "RationalMap(p=3, d=1, F=(-1, 2), G=(2, 0), D=2, res_ord=0, factored=FactoredForm("
            "c=Fraction(1, 1), zeros=((ProjPoint(1/2), 1),), poles=((ProjPoint(inf), 1),)))",
            None,
        ),
        (
            Shift(3, 0, [1, 3], [2], [0, 1], [None]),
            "Shift(p=3, ov=0, qf=[1, 3], qg=[2], of=[0, 1], og=[None])",
            None,
        ),
        (
            edge,
            "TreeEdge(lower=BerkPoint(zeta(1/3, t=2)), upper=BerkPoint(zeta(0, t=0)), "
            "center=Fraction(1, 3))",
            None,
        ),
        (
            FiniteTree((disc,), (edge,)),
            "FiniteTree(vertices=(BerkPoint(zeta(1/3, t=2)),), edges=(TreeEdge("
            "lower=BerkPoint(zeta(1/3, t=2)), upper=BerkPoint(zeta(0, t=0)), "
            "center=Fraction(1, 3)),))",
            None,
        ),
        (
            GprResult(Ord.of(2), disc, (disc,)),
            "GprResult(ord=Ord(2), argmin=BerkPoint(zeta(1/3, t=2)), "
            "preimages=(BerkPoint(zeta(1/3, t=2)),))",
            None,
        ),
        (
            InvariantBundle(3, 2, Ord.of(1), Ord.of(4), None, None, None, "no form"),
            "InvariantBundle(p=3, d=2, gir=Ord(1), res=Ord(4), rp=None, gpr=None, "
            "gpr_argmin=None, note='no form')",
            None,
        ),
        (
            seg,
            "ProfileSegment(t_hi=Fraction(0, 1), t_lo=None, coeff_ord=1, k=-2)",
            None,
        ),
        (
            RadialProfile(3, Fraction(0), Fraction(0), (seg,)),
            "RadialProfile(p=3, center=Fraction(0, 1), t_min=Fraction(0, 1), "
            "segments=(ProfileSegment(t_hi=Fraction(0, 1), t_lo=None, coeff_ord=1, k=-2),))",
            None,
        ),
        (
            BoundReport(3, 1, s, s, s, None, None, None, None, None, None, (pt, INF_POINT), None),
            "BoundReport(p=3, d=1, lip_classical=PPowerSum(2*p^-1/2), "
            "resultant_bound_classical=PPowerSum(2*p^-1/2), "
            "resultant_bound_berk=PPowerSum(2*p^-1/2), invariant_bound_rp=None, "
            "invariant_bound_rp_coarse=None, invariant_bound_user_b0=None, "
            "mobius_exact=None, sampled_max_ratio=None, sample_witness=None, "
            "gpr_witness=(ProjPoint(1/2), ProjPoint(inf)), gpr_witness_note=None)",
            None,
        ),
        (
            Hull([half], [1, None], [None, None], [0, None], [1, 1], 0),
            "Hull(points=[Fraction(1, 2)], up=[1, None], t=[None, None], center=[0, None], "
            "below=[1, 1], rp=0)",
            None,
        ),
    ]


def test_every_record_type_is_covered():
    types = {type(obj) for obj, _, _ in _records()}
    assert types == {
        Ord, PPowerSum, ProjPoint, BerkPoint, PWLinear, FactoredForm, RationalMap,
        Shift, TreeEdge, FiniteTree, GprResult, InvariantBundle, ProfileSegment,
        RadialProfile, BoundReport, Hull,
    }


@pytest.mark.parametrize("index", range(len(_records())))
def test_text_forms_unchanged(index):
    obj, text, rep = _records()[index]
    assert str(obj) == text
    assert repr(obj) == (text if rep is None else rep)


@pytest.mark.parametrize("index", range(len(_records())))
def test_hash_is_the_field_tuple_hash(index):
    """So set and dict orders are those of the frozen dataclasses.  Ord
    equals its value (``Ord.of(2) == 2``), so it hashes as its value; a
    record holding lists (``Hull`` and the reference ``Shift``) is
    unhashable."""
    obj = _records()[index][0]
    fields = tuple(getattr(obj, name) for name in obj._fields)
    if isinstance(obj, Ord):
        assert hash(obj) == hash(obj.v)
        assert hash(Ord.of(2)) == hash(2) and Ord.of(2) == 2
    elif isinstance(obj, (Hull, Shift)):
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(fields)
    assert obj == type(obj)(*fields)


@pytest.mark.parametrize("index", range(len(_records())))
def test_attribute_assignment_raises(index):
    obj = _records()[index][0]
    with pytest.raises(AttributeError):
        setattr(obj, obj._fields[0], None)
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_ord_inequality_is_the_negated_equality():
    assert not (Ord.of(3) != 3)
    assert Ord.of(3) != Fraction(1, 3)
    assert not (ORD_INF != ORD_INF)
    assert Ord.of(0) != ORD_INF


def test_empty_pwlinear_raises():
    with pytest.raises(ValueError, match=r"^PWLinear needs at least one piece$"):
        PWLinear(Fraction(0), None, ())
