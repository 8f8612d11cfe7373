"""The package's records: frozen, compared by their fields (the value
records) or by identity (words and forms), and printed as
``Name(field=value, ...)``."""

import copy
import pickle

import pytest

from simpdelta.homology import ChainComplexF2
from simpdelta.models import F2Element, TensorElement
from simpdelta.relations import RelationResult
from simpdelta.transforms import EqualityReport, IndexFunction
from simpdelta.words import ZERO_FORM, NormalForm, parse_word

# per value record: its fields in order, another value for each field, and
# the repr of the record built from the first
VALUES = {
    F2Element: (
        {"degree": 1, "support": frozenset({(0, 1)})},
        {"degree": 2, "support": frozenset({(0, 0)})},
        "F2Element(degree=1, support=frozenset({(0, 1)}))"),
    TensorElement: (
        {"left_degree": 1, "right_degree": 0, "pairs": frozenset({((0, 1), (0,))})},
        {"left_degree": 0, "right_degree": 1, "pairs": frozenset()},
        "TensorElement(left_degree=1, right_degree=0, pairs=frozenset({((0, 1), (0,))}))"),
    IndexFunction: (
        {"rows": ((1, 0, -1), (0, 1, 0))},
        {"rows": ((1, 0, 0), (0, 1, 0))},
        "IndexFunction(rows=((1, 0, -1), (0, 1, 0)))"),
    EqualityReport: (
        {"equal": False, "bidegrees_checked": 3, "witness": (1, 0),
         "left_only": frozenset({1}), "right_only": frozenset({2})},
        {"equal": True, "bidegrees_checked": 4, "witness": (0, 1),
         "left_only": frozenset(), "right_only": frozenset({3})},
        "EqualityReport(equal=False, bidegrees_checked=3, witness=(1, 0), "
        "left_only=frozenset({1}), right_only=frozenset({2}))"),
    RelationResult: (
        {"name": "simp0", "description": "d s = id", "cases": 6, "passed": False,
         "witness": "(1, 0)"},
        {"name": "simp1", "description": "s s", "cases": 7, "passed": True,
         "witness": None},
        "RelationResult(name='simp0', description='d s = id', cases=6, "
        "passed=False, witness='(1, 0)')"),
}
CLASSES = list(VALUES)
IDS = [cls.__name__ for cls in CLASSES]


def build(cls, **changes):
    return cls(*{**VALUES[cls][0], **changes}.values())


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal_fields_give_equal_records_with_equal_hashes(cls):
    fields = VALUES[cls][0]
    a, b = cls(*fields.values()), cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert [getattr(b, name) for name in fields] == list(fields.values())
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, protocol)) == a


@pytest.mark.parametrize("cls, field", [
    (cls, field) for cls in CLASSES for field in VALUES[cls][0]
], ids=[f"{cls.__name__}-{field}" for cls in CLASSES for field in VALUES[cls][0]])
def test_one_changed_field_gives_an_unequal_record(cls, field):
    changed = build(cls, **{field: VALUES[cls][1][field]})
    assert changed != build(cls)
    assert not changed == build(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_record_never_equals_a_record_of_another_class(cls):
    record = build(cls)
    assert record.__eq__(tuple(VALUES[cls][0].values())) is NotImplemented
    assert record != tuple(VALUES[cls][0].values())
    for other in CLASSES:
        if other is not cls:
            assert record != build(other)
            assert record.__eq__(build(other)) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_value_records_are_frozen(cls):
    record = build(cls)
    for field, value in VALUES[cls][1].items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == build(cls)


def test_words_and_forms_are_frozen():
    # each assignment would write the value already there, so a failure
    # here leaves the shared word and form as they were
    word = parse_word("s1 d0")
    form = NormalForm((1,), (0,))
    for record, field in [(word, "factors"), (form, "degeneracies"),
                          (form, "faces"), (form, "is_zero")]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_keyword_construction_and_defaults():
    assert EqualityReport(True, 3).witness is None
    assert EqualityReport(True, 3).left_only == frozenset()
    assert EqualityReport(True, 3).right_only == frozenset()
    assert EqualityReport(equal=True, bidegrees_checked=3) == EqualityReport(True, 3)
    assert RelationResult("simp0", "d s = id", 6, True).witness is None
    assert RelationResult(name="simp0", description="d s = id", cases=6,
                          passed=True) == RelationResult("simp0", "d s = id", 6, True)
    assert F2Element(support=frozenset(), degree=2) == F2Element(2, frozenset())


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_lists_the_fields(cls):
    assert repr(build(cls)) == VALUES[cls][2]


def test_form_word_and_complex_reprs():
    assert repr(NormalForm((1,), (0, 2))) == (
        "NormalForm(degeneracies=(1,), faces=(0, 2), is_zero=False)")
    assert repr(ZERO_FORM) == "NormalForm(degeneracies=(), faces=(), is_zero=True)"
    assert repr(parse_word("s1 d0")) == "Word('s1 d0')"
    complex_ = ChainComplexF2([[()], [(0,)], [()]])
    complex_.rank_d(1)
    assert repr(complex_) == "ChainComplexF2(diff=[[()], [(0,)], [()]])"
