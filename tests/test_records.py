"""The value records behave as the frozen dataclasses they replaced: equal
values within one class are equal and hash alike, a record never equals a
record of another class or a tuple, assignment is refused, pickling keeps
the value, and the repr is the dataclass repr that error messages print.
ResidueElement keeps identity equality and SearchCheckpoint stays mutable.
dataclasses.replace still works: the benchmark's traced mode calls it on a
search predicate."""
import dataclasses
import importlib
import pickle
from fractions import Fraction

import pytest

from quadrec import dynamics
from quadrec.certificates import CertifiedCount, NonWieferichCertificate
from quadrec.cli import RunConfig
from quadrec.dynamics import MultiplicativeGroupReport, eigen_consistency
from quadrec.errors import InvariantBreachError
from quadrec.heights import PhiRatio, PlaceValue
from quadrec.periods import (PeriodReport, RecurrenceTuple, fibonacci_tuple,
                             period_formula)
from quadrec.record import Record
from quadrec.ring import (PrimeIdealData, QuadraticElement, QuadraticField,
                          ResidueElement, prime_ideals_above, qelem,
                          quadratic_field)
from quadrec.search import SearchCheckpoint, SearchPredicate, wieferich_predicate
from quadrec.wieferich import WallVerdict

K5 = quadratic_field(5)
P11 = prime_ideals_above(K5, 11)[0]


def _values(cls) -> tuple:
    """Field values for one instance of cls, built afresh on every call."""
    return {
        QuadraticField: lambda: (5, 5, 1, -1),
        QuadraticElement: lambda: (K5, 1, 2, 3),
        PrimeIdealData: lambda: (K5, 11, "split", 1, 4, False),
        ResidueElement: lambda: ((P11, 2), 75, 0),
        RecurrenceTuple: lambda: ((qelem(K5, 0, 1),), (qelem(K5, 1),), "phi"),
        PeriodReport: lambda: (10, ((0, "11a", 10),), "formula"),
        NonWieferichCertificate: lambda: (11, P11, 5, 5, 3),
        CertifiedCount: lambda: (1, (7,), ()),
        WallVerdict: lambda: (7, 16, 112, False),
        MultiplicativeGroupReport: lambda: (("2",), ((1,),), (), (), 1),
        PlaceValue: lambda: ("finite", Fraction(1, 4), P11, 1),
        PhiRatio: lambda: (0.5, 0.25),
        SearchPredicate: lambda: ("n", {"k": [1]}, abs, bool),
        SearchCheckpoint: lambda: (2, 100, 50, [{"p": 3}], 10, "abc"),
        RunConfig: lambda: ("certify", None, "2", None, None, None, None, 100,
                            1, 20, ("3",), None, False, "json", 1),
    }[cls]()


RECORDS = [QuadraticField, QuadraticElement, PrimeIdealData, ResidueElement,
           RecurrenceTuple, PeriodReport, NonWieferichCertificate,
           CertifiedCount, WallVerdict, MultiplicativeGroupReport, PlaceValue,
           PhiRatio, SearchPredicate, SearchCheckpoint, RunConfig]
BY_VALUE = [cls for cls in RECORDS if cls is not ResidueElement]
UNHASHABLE = (SearchPredicate, SearchCheckpoint)
FROZEN = [cls for cls in RECORDS if cls is not SearchCheckpoint]
ids = [cls.__name__ for cls in RECORDS]


def test_every_record_class_is_covered():
    for m in ("certificates", "cli", "dynamics", "heights", "periods", "ring",
              "search", "wieferich"):
        importlib.import_module(f"quadrec.{m}")
    assert {cls for cls in Record.__subclasses__()
            if cls.__module__.startswith("quadrec.")} == set(RECORDS)


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda c: c.__name__)
def test_equal_values_are_equal_and_hash_alike(cls):
    a, b = cls(*_values(cls)), cls(*_values(cls))
    assert a == b and not a != b
    assert a == cls(**dict(zip(cls._fields, _values(cls))))
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(_values(cls))  # the dataclass hash


def test_residue_elements_compare_by_identity():
    a, b = (ResidueElement(*_values(ResidueElement)) for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2
    assert (a.modulus, a.u, a.v) == (b.modulus, b.u, b.v)


@pytest.mark.parametrize("cls", BY_VALUE, ids=lambda c: c.__name__)
def test_a_record_equals_no_other_class_with_the_same_values(cls):
    assert cls(*_values(cls)) != _values(cls)
    assert _values(cls) != cls(*_values(cls))
    # a record class of the same name and fields is still another class
    twin = type(cls.__name__, (Record,),
                {"__annotations__": dict.fromkeys(cls._fields)})
    assert cls(*_values(cls)) != twin(*_values(cls))
    assert QuadraticField(5, 5, 1, -1) != WallVerdict(5, 5, 1, -1)
    assert PeriodReport(1, (), "x") != CertifiedCount(1, (), "x")


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment(cls):
    rec = cls(*_values(cls))
    field = cls._fields[0]
    with pytest.raises(AttributeError, match=f"'{field}'"):
        setattr(rec, field, 1)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert tuple(getattr(rec, n) for n in cls._fields) == _values(cls)


def test_the_checkpoint_is_updated_in_place():
    ck = SearchCheckpoint(*_values(SearchCheckpoint))
    ck.cursor, ck.primes_scanned = 60, 12
    assert (ck.cursor, ck.primes_scanned) == (60, 12)
    assert ck != SearchCheckpoint(*_values(SearchCheckpoint))


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_pickle_round_trip_keeps_the_value(cls):
    rec = cls(*_values(cls))
    if cls is RecurrenceTuple:
        rec._support  # a cached value is not part of the record
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls
    assert tuple(getattr(back, n) for n in cls._fields) == _values(cls)
    if cls is not ResidueElement:
        assert back == rec


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_repr_is_the_dataclass_repr(cls):
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields)
    assert repr(cls(*_values(cls))) == repr(twin(*_values(cls)))


def test_a_breach_message_prints_the_modulus_as_a_dataclass_would(monkeypatch):
    t = fibonacci_tuple()
    period = period_formula(t, [(P11, 1)]).period
    monkeypatch.setattr(dynamics, "orbit_period", lambda t, m: period + 1)
    want = ("mod (PrimeIdealData(field=QuadraticField(d=5, disc=5, "
            "omega_trace=1, omega_norm=-1), p=11, kind='split', f=1, "
            "hensel_root=4, conjugate_flag=False), 1)")
    with pytest.raises(InvariantBreachError) as info:
        eigen_consistency(t, (P11, 1))
    assert str(info.value).endswith(want)


def test_keywords_and_defaults_fill_the_fields():
    assert RunConfig("certify") == RunConfig(subcommand="certify")
    assert RunConfig("certify").n_to == 20 and RunConfig("certify").gens == ()
    assert PlaceValue("infinite", 3, weight=2) == PlaceValue("infinite", 3, None, 2)
    assert RecurrenceTuple(*_values(RecurrenceTuple)[:2]).name == ""
    for args, kwargs in [((1, 2, 3, 4, 5), {}), (("finite",), {}),
                         (("finite", 1), {"kind": "x"}),
                         (("finite", 1), {"colour": 1})]:
        with pytest.raises(TypeError, match=r"PlaceValue\('kind'"):
            PlaceValue(*args, **kwargs)


def test_the_dataclass_api_still_answers():
    pred = wieferich_predicate(2)
    traced = dataclasses.replace(pred, test=len)
    assert type(traced) is SearchPredicate and traced.test is len
    assert traced.verify is pred.verify
    assert (traced.name, traced.params) == (pred.name, pred.params)
    cfg = RunConfig(*_values(RunConfig))
    assert dataclasses.is_dataclass(cfg)
    assert [f.name for f in dataclasses.fields(cfg)] == list(RunConfig._fields)
    assert dataclasses.asdict(cfg) == dict(zip(RunConfig._fields,
                                               _values(RunConfig)))
