"""Every frozen slotted record is built by eventlog._record, and behaves as
the same fields under dataclass(frozen=True, slots=True)'s own __init__
(oracles.plain_record): calls, defaults, replace, ==, hash, repr,
refusals, frozenness and signature."""

import dataclasses
import importlib
import inspect
import pkgutil
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest

import ppmkit
from oracles import plain_record
from ppmkit.blocks import Block
from ppmkit.classify import PerspicuityVerdict, SessionReport
from ppmkit.eventlog import EventKind, ModelingEvent, ObjectType
from ppmkit.metrics import SessionMetrics
from ppmkit.model import Edge, Node, ProcessModel
from ppmkit.normalize import AppliedRule, NormalizationOutcome
from ppmkit.simulate import SimulationProfile
from ppmkit.soundness import SoundnessReport, Violation
from ppmkit.stats import BoxplotSummary, GroupComparison, MetricComparison, TTestResult

T0 = datetime(2010, 11, 15, 10, tzinfo=timezone.utc)
T1 = T0 + timedelta(seconds=3)
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
_METRICS = SessionMetrics(1, _HALF, None, _THIRD, Fraction(3), Fraction(2))
_BLOCK = Block("g1", "g2", frozenset({"g1", "a", "g2"}), 5, (T0, T1), True)
_KEPT = NormalizationOutcome(None, "mixed gateway: g")
_SOUND = SoundnessReport((), 4)
_BOX = BoxplotSummary(1.0, 0.5, 2.0, 1.2, 0.0, 3.0, (9.0,), 5)
_TEST = TTestResult(1.5, 8, 0.17, (5, 5), (1.0, 2.0), (0.5, 0.25))
_ROW = MetricComparison("tot_time", "lower", _BOX, _BOX, _TEST, False)

# Per record: two full argument lists (the second differs in every field,
# so replace has a new value for each) and, where __post_init__ refuses
# values, a list it refuses.
RECORDS = {
    ModelingEvent: ((1, T0, EventKind.CREATE_ACTIVITY, "a", (5, 6), "x", None, None),
                    (2, T1, EventKind.CREATE_EDGE, "e", None, "y", "a", "b"),
                    (1, T0, EventKind.CREATE_EDGE, "e", None, None, "a", None)),
    Block: (("g1", "g2", frozenset({"g1", "g2"}), 4, (T0, T1), True),
            ("h1", "h2", frozenset({"h1", "b", "h2"}), 7, (T1, T1), False), None),
    SessionMetrics: ((1, _HALF, None, _THIRD, Fraction(3), Fraction(2)),
                     (2, None, _HALF, Fraction(0), Fraction(5), Fraction(1)), None),
    Node: (("a", ObjectType.ACTIVITY, "A", (1, 2)), ("g", ObjectType.XOR, None, (3, 4)),
           ("e", ObjectType.EDGE, None, (0, 0))),
    Edge: (("e1", "a", "b", "yes", ((1, 1),)), ("e2", "b", "c", None, ()), None),
    AppliedRule: (("merge", ("g1", "g2")), ("split", ("g3",)), None),
    NormalizationOutcome: ((ProcessModel(), None, (AppliedRule("merge", ("g",)),)),
                           (None, "mixed gateway: g", ()), None),
    Violation: (("DeadTransition", "t_a", ("t_b",)), ("Unbounded", {"p": 2}, None), None),
    SoundnessReport: (((Violation("DeadTransition", "t"),), 7), ((), 3), None),
    PerspicuityVerdict: ((NormalizationOutcome(None), _SOUND),
                         (_KEPT, None), (_KEPT, _SOUND)),
    SessionReport: (("s1", _METRICS, (_BLOCK,), PerspicuityVerdict(_KEPT, None)),
                    ("s2", SessionMetrics(0, None, None, Fraction(0), Fraction(0), Fraction(0)),
                     (), PerspicuityVerdict(NormalizationOutcome(None), _SOUND)), None),
    SimulationProfile: (("structured", 0.0, 0.2, 4.0, 0.1, 3),
                        ("chaotic", 0.9, 1.5, 2.0, 0.0, 0), ("bad", 1.5, 0.2, 4.0, 0.0, 0)),
    BoxplotSummary: ((1.0, 0.5, 2.0, 1.2, 0.0, 3.0, (9.0,), 5),
                     (2.0, 1.5, 3.0, 2.2, 1.0, 4.0, (), 6), None),
    TTestResult: ((1.5, 8, 0.17, (5, 5), (1.0, 2.0), (0.5, 0.25)),
                  (-2.0, 10, 0.07, (6, 6), (3.0, 1.0), (1.5, 0.5)), None),
    MetricComparison: (("tot_time", "lower", _BOX, _BOX, _TEST, False),
                       ("max_simul_block", "higher", _BOX, _ROW.group_b,
                        TTestResult(0.1, 4, 0.9, (3, 3), (1.0, 1.0), (0.1, 0.1)), True), None),
    GroupComparison: ((5, 5, (_ROW,)), (3, 4, ()), None),
}


def _hash(value):
    try:
        return hash(value)
    except TypeError as err:  # a ProcessModel or a dict witness
        return str(err)


def _made(make, cls):
    try:
        return make(cls)
    except (ValueError, TypeError) as err:
        return err


def _facts(value):
    """A refusal's type and words, or a record's fields, repr and hash."""
    if isinstance(value, Exception):
        return type(value), str(value)
    return [getattr(value, f.name) for f in dataclasses.fields(value)], repr(value), _hash(value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_agrees_with_the_dataclass_init(cls):
    args, other, refused = RECORDS[cls]
    plain = plain_record(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    calls = [lambda c: c(*args), lambda c: c(**dict(zip(names, other))),
             lambda c: c(*other[:required]),
             *[lambda c, n=n, v=v: dataclasses.replace(c(*args), **{n: v})
               for n, v in zip(names, other)]]
    if refused is not None:
        calls.append(lambda c: c(*refused))
    made = [_made(make, cls) for make in calls]
    plains = [_made(make, plain) for make in calls]
    assert list(map(_facts, made)) == list(map(_facts, plains))
    assert isinstance(made[-1], ValueError) == (refused is not None)
    kept = [i for i, value in enumerate(made) if not isinstance(value, Exception)]
    assert ([[made[i] == made[j] for j in kept] for i in kept]
            == [[plains[i] == plains[j] for j in kept] for i in kept])
    assert inspect.signature(cls) == inspect.signature(plain)
    assert cls.__init__.__qualname__ == plain.__init__.__qualname__
    record = made[0]
    assert type(record) is cls and not hasattr(record, "__dict__")
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)


def _frozen_slotted_records() -> dict[str, type]:
    records = {}
    for info in pkgutil.iter_modules(ppmkit.__path__):
        module = importlib.import_module(f"ppmkit.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen
                    and "__slots__" in vars(value)):
                records[value.__qualname__] = value
    return records


def test_every_frozen_slotted_record_is_built_by_record():
    """A new record can fall back neither to dataclasses' frozen __init__
    nor to a hand-written one, and each is in RECORDS."""
    records = _frozen_slotted_records()
    assert sorted(records) == sorted(cls.__qualname__ for cls in RECORDS)
    assert len(records) == 16
    for cls in records.values():
        assert cls.__init__.__code__.co_filename == "<_record>", cls
