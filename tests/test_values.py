"""Value semantics of the package's immutable slotted classes.

Every value class compares equal only to instances of its own class,
hashes as its field tuple, prints as `Name(field=value, ...)` and rejects
assignment, so sets, sorted output and printed reprs are stable.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from smsquiver.acceptance import CriterionResult
from smsquiver.configs import Orbit, TransitivityRow
from smsquiver.dynkin import DynkinGraph, GraphAutomorphism, InvalidTypeError, RfsType, parse_type
from smsquiver.meshcat import HomTable, oracle_table
from smsquiver.mutation import MutationQuiver
from smsquiver.nakayama import Approximation, SerialModule
from smsquiver.values import Value
from smsquiver.ztquiver import StableTranslationQuiver, Window, quotient

A3 = DynkinGraph("A", 3)

# (value, pinned repr); the reprs are those the earlier dataclasses printed
CASES = [
    (A3, "DynkinGraph(family='A', rank=3)"),
    (
        GraphAutomorphism(A3, (3, 2, 1)),
        "GraphAutomorphism(graph=DynkinGraph(family='A', rank=3), mapping=(3, 2, 1))",
    ),
    (
        RfsType(DynkinGraph("A", 2), 1, 1),
        "RfsType(graph=DynkinGraph(family='A', rank=2), frequency=Fraction(1, 1), "
        "torsion=1, standard=True)",
    ),
    (Window(A3, 0, 1), "Window(graph=DynkinGraph(family='A', rank=3), p_min=0, p_max=1)"),
    (
        quotient(parse_type("A:1/f=2/t=1")),
        "StableTranslationQuiver(rfs_type=RfsType(graph=DynkinGraph(family='A', rank=1), "
        "frequency=Fraction(2, 1), torsion=1, standard=True), r=2, "
        "zeta=GraphAutomorphism(graph=DynkinGraph(family='A', rank=1), mapping=(1,)), "
        "vertices=((0, 1), (1, 1)), arrows=(), tau={(0, 1): (1, 1), (1, 1): (0, 1)})",
    ),
    (
        oracle_table(DynkinGraph("A", 1), (0, 1)),
        "HomTable(graph=DynkinGraph(family='A', rank=1), source=(0, 1), window=(0, 5), "
        "dims={(0, 1): 1})",
    ),
    (
        Orbit(((0, 1),), 1, (((0, 1),),)),
        "Orbit(representative=((0, 1),), size=1, members=(((0, 1),),))",
    ),
    (
        TransitivityRow("A:2/f=1/t=1", 5, 1, True, True),
        "TransitivityRow(rfs_type='A:2/f=1/t=1', configurations=5, orbits=1, "
        "single_orbit=True, listed=True)",
    ),
    (SerialModule(2, 3), "SerialModule(top=2, length=3)"),
    (
        Approximation(SerialModule(1, 2), ((SerialModule(2, 1), 0),)),
        "Approximation(module=SerialModule(top=1, length=2), "
        "copies=((SerialModule(top=2, length=1), 0),))",
    ),
    (
        MutationQuiver((2, 3), ((SerialModule(1, 1), SerialModule(2, 1)),), ()),
        "MutationQuiver(algebra_key=(2, 3), vertices=((SerialModule(top=1, length=1), "
        "SerialModule(top=2, length=1)),), arrows=())",
    ),
    (
        CriterionResult(1, "classification", True, "ok", 0.5, 10.0),
        "CriterionResult(number=1, name='classification', passed=True, detail='ok', "
        "seconds=0.5, budget=10.0)",
    ),
]
IDS = [type(x).__name__ for x, _ in CASES]
# quotients and hom tables hold a dict, so they were never hashable
UNHASHABLE = (StableTranslationQuiver, HomTable)


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


def test_every_value_class_is_covered():
    classes = {c for c in Value.__subclasses__() if c.__module__.startswith("smsquiver.")}
    assert classes == {type(x) for x, _ in CASES}


@pytest.mark.parametrize("x,text", CASES, ids=IDS)
def test_repr_is_pinned(x, text):
    assert repr(x) == text


@pytest.mark.parametrize("x,text", CASES, ids=IDS)
def test_equality_only_within_one_class(x, text):
    cls = type(x)
    twin = cls(*fields(x))
    assert x == twin and not x != twin
    assert x != fields(x)
    # a class with the same fields and values is still another class
    other = type("Other", (Value,), {"__slots__": cls.__slots__})(*fields(x))
    assert x != other and other != x


@pytest.mark.parametrize("x,text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(x, text):
    if isinstance(x, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(fields(x))


@pytest.mark.parametrize("x,text", CASES, ids=IDS)
def test_fields_are_read_only(x, text):
    name = type(x).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, name, None)
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == text


@pytest.mark.parametrize("x,text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(x, text):
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == text


def test_fields_bind_by_position_or_keyword():
    assert Window(A3, p_max=1, p_min=0) == Window(A3, 0, 1)
    for args, kwargs in [((A3, 0), {}), ((A3, 0, 1, 2), {}), ((A3, 0), {"p_min": 1}),
                         ((A3, 0), {"top": 1})]:
        with pytest.raises(TypeError):
            Window(*args, **kwargs)


def test_serial_modules_sort_by_top_then_length():
    mods = [SerialModule(2, 1), SerialModule(1, 3), SerialModule(1, 2), SerialModule(3, 1)]
    assert [(m.top, m.length) for m in sorted(mods)] == [(1, 2), (1, 3), (2, 1), (3, 1)]
    a, b = SerialModule(1, 3), SerialModule(2, 1)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or b <= a or a > b or a >= b or a < a or a > a)
    assert min(mods) == SerialModule(1, 2) and max(mods) == SerialModule(3, 1)
    with pytest.raises(TypeError):
        a < (1, 3)


def test_rfs_type_coerces_frequency_and_defaults_to_standard():
    t = RfsType(A3, 1, 1)
    assert type(t.frequency) is Fraction and t.frequency == 1
    assert t.standard is True
    assert RfsType(A3, "1/3", 1).frequency == Fraction(1, 3)
    ns = RfsType(A3, 1, 1, standard=False)
    assert ns.standard is False and ns != t


def test_validation_still_raises():
    with pytest.raises(InvalidTypeError, match="not a Dynkin tree"):
        DynkinGraph("B", 2)
    with pytest.raises(ValueError, match="empty window"):
        Window(A3, 3, 1)
    with pytest.raises(ValueError, match="does not preserve the edge set"):
        GraphAutomorphism(A3, (2, 1, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        GraphAutomorphism(A3, (1, 1, 2))
