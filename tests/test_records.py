"""Value semantics of the immutable record classes.

Every record is frozen, compares and hashes by its fields (only records of
the same class compare equal), prints as ``Name(field=value, ...)`` and,
where a sweep or a caller may send it to another process, pickles.
"""

import importlib
import operator
import pickle
import pkgutil

import pytest

from lefschetz import cli, exactla, family, polyring, quotient, semigroup
from lefschetz.polyring import HomogeneousPoly
from lefschetz.record import Record


def _ideal():
    return polyring.parse_ideal("x^2, y^2 - x*z, z^2")


def _report(strategy):
    form = quotient.LinearForm((1, -1, -1))
    per_map = (quotient.MapRank(1, 1, 3, 3, 3, True),)
    return quotient.LefschetzReport(quotient.HOLDS, form, per_map, strategy)


# (class, field names in order, builder of one instance); the builder is
# called twice, so each call must give an equal but separate record
RECORDS = [
    (
        cli.SweepConfig,
        ("a_max", "a_min", "filter", "trials", "bound", "seed", "slp", "jobs"),
        lambda: cli.SweepConfig(5, 3, "uncovered", 4, 99, 7, True, 2),
    ),
    (
        exactla.EchelonForm,
        ("rows",),
        lambda: exactla.EchelonForm({0: {0: 1, 2: 3}, 1: {1: 1}}),
    ),
    (
        polyring.IdealPresentation,
        ("nvars", "generators"),
        lambda: polyring.IdealPresentation(
            2,
            [HomogeneousPoly.monomial(2, (2, 0)), HomogeneousPoly.monomial(2, (0, 3))],
        ),
    ),
    (
        polyring.DegreeSlice,
        (
            "degree",
            "basis",
            "dead",
            "echelon",
            "standard_monomials",
            "standard_columns",
        ),
        lambda: polyring.ideal_degree_slice(_ideal(), 2),
    ),
    (
        quotient.LinearForm,
        ("coefficients",),
        lambda: quotient.LinearForm([1, -2, 3]),
    ),
    (
        quotient.SearchStrategy,
        ("trials", "bound", "seed"),
        lambda: quotient.SearchStrategy(3, 50, "7|2,2,2,1,1"),
    ),
    (quotient.HilbertData, ("h",), lambda: quotient.HilbertData((1, 3, 3, 1))),
    (
        quotient.MapRank,
        ("degree", "power", "dim_from", "dim_to", "rank", "maximal"),
        lambda: quotient.MapRank(1, 2, 3, 3, 2, False),
    ),
    (
        quotient.LefschetzReport,
        ("verdict", "certificate_form", "per_map", "strategy"),
        lambda: _report({"trials": 8, "bound": 10_000, "seed": 0}),
    ),
    (
        family.GorensteinParams,
        ("a", "b", "c", "beta", "gamma"),
        lambda: family.GorensteinParams(8, 7, 6, 3, 2),
    ),
    (
        family.CoverageReport,
        ("thm37", "thm38", "cor313a", "cor313b")
        + ("small2", "small3", "small4", "small5"),
        lambda: family.classify(family.GorensteinParams(5, 4, 3, 2, 1)),
    ),
    (
        family.SnMatrix,
        ("size", "upper", "last_row"),
        lambda: family.SnMatrix(3, [[1, 2], [0]], [4, 5, 6]),
    ),
    (
        family.SnCheck,
        ("det", "alpha_last", "equal", "positive"),
        lambda: family.SnCheck(6, 6, True, True),
    ),
    (
        semigroup.AperySet,
        ("modulus", "elements", "orders"),
        lambda: semigroup.AperySet(3, (0, 4, 5), (0, 1, 1)),
    ),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]

# records whose fields include a dict cannot be hashed, as with a dataclass
UNHASHABLE = {exactla.EchelonForm, polyring.DegreeSlice}


@pytest.mark.parametrize("cls, names, build", RECORDS, ids=IDS)
def test_record_is_frozen(cls, names, build):
    record = build()
    assert type(record) is cls
    before = getattr(record, names[0])
    for name in (names[0], names[-1], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert getattr(record, names[0]) is before


@pytest.mark.parametrize("cls, names, build", RECORDS, ids=IDS)
def test_record_equality_and_hash(cls, names, build):
    one, two = build(), build()
    assert one is not two
    assert one == two and not one != two
    if cls in UNHASHABLE:
        for record in (one, two):
            with pytest.raises(TypeError):
                hash(record)
    else:
        assert hash(one) == hash(two)
    values = tuple(getattr(one, name) for name in names)
    assert one != values
    assert one != values[0]
    # the same fields on a record of another class never compare equal
    twin_cls = type("Twin", (cls,), {"__module__": __name__})
    twin = twin_cls(*values)
    assert tuple(getattr(twin, name) for name in names) == values
    assert one != twin and twin != one
    assert not one == twin


@pytest.mark.parametrize("cls, names, build", RECORDS, ids=IDS)
def test_record_repr_is_dataclass_text(cls, names, build):
    record = build()
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__qualname__}({fields})"


def test_records_of_two_classes_with_equal_fields_differ():
    values = (1, -1, -1)
    assert quotient.HilbertData(values) != quotient.LinearForm(values)
    assert quotient.LinearForm(values) != quotient.HilbertData(values)
    assert family.SnCheck(1, 1, True, True) != family.SnCheck(1, 1, True, False)


def test_records_compare_field_by_field():
    rank = quotient.MapRank
    assert rank(1, 2, 3, 3, 2, False) != rank(1, 2, 3, 3, 3, True)
    params = family.GorensteinParams
    assert params(2, 2, 2, 1, 1) != params(3, 2, 2, 1, 1)
    assert {params(2, 2, 2, 1, 1), params(2, 2, 2, 1, 1)} == {params(2, 2, 2, 1, 1)}


def test_gorenstein_params_hash_like_their_tuples_and_do_not_order():
    params = list(family.enumerate_params(4))[::7]
    for p in params:
        t = p.as_tuple()
        assert hash(family.GorensteinParams(*t)) == hash(t)
    # records have no ordering; ``as_tuple`` is the sort key
    comparisons = (operator.lt, operator.le, operator.gt, operator.ge)
    records = [build() for _, _, build in RECORDS] + params[:2]
    for record in records:
        for op in comparisons:
            with pytest.raises(TypeError):
                op(record, record)
    p, q = params[:2]
    for op in comparisons:
        with pytest.raises(TypeError):
            op(p, q)
        with pytest.raises(TypeError):
            op(p, p.as_tuple())


def test_lefschetz_report_equality_ignores_strategy():
    one = _report({"trials": 8})
    two = _report({"trials": 1, "seed": "other"})
    assert one == two
    assert hash(one) == hash(two)
    other = quotient.LefschetzReport(
        quotient.FAILS_PROBABLY, None, one.per_map, one.strategy
    )
    assert one != other


@pytest.mark.parametrize(
    "record",
    [
        cli.SweepConfig(4, slp=True, jobs=2),
        quotient.SearchStrategy(trials=3, bound=7, seed="1|2,2,2,1,1"),
        family.GorensteinParams(8, 7, 6, 3, 2),
        quotient.LinearForm((1, -1, -1)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_record_survives_pickle(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record)
        assert back == record
        assert repr(back) == repr(record)


def test_record_defaults():
    assert cli.SweepConfig(3) == cli.SweepConfig(3, 2, "all", 8, 10_000, 0, False, 1)
    assert quotient.SearchStrategy() == quotient.SearchStrategy(8, 10_000, 0)
    # keyword and positional construction agree
    params = family.GorensteinParams
    assert params(a=3, b=3, c=2, beta=1, gamma=1) == params(3, 3, 2, 1, 1)
    rank = quotient.MapRank
    by_name = rank(degree=1, power=1, dim_from=3, dim_to=3, rank=3, maximal=True)
    assert by_name == rank(1, 1, 3, 3, 3, True)
    for cls, names, build in RECORDS:
        values = tuple(getattr(build(), name) for name in names)
        by_name = cls(**dict(zip(names, values)))
        assert by_name == cls(*values)
        assert tuple(getattr(by_name, name) for name in names) == values
        # keywords may follow positionals, in any order
        mixed = cls(*values[:1], **dict(reversed(list(zip(names, values))[1:])))
        assert mixed == by_name


# records that only store their fields use Record's constructor as it is
STORE_ONLY = [entry for entry in RECORDS if "__init__" not in vars(entry[0])]


def _misuse(kind, names, values):
    """Arguments that misuse a record constructor in the way ``kind`` names."""
    fields = dict(zip(names, values))
    if kind == "missing field":
        return values[:-1], {}
    if kind == "unknown keyword":
        return (), {**fields, "not_a_field": 0}
    if kind == "field given twice":
        return values[:1], fields
    return values + (0,), {}


@pytest.mark.parametrize(
    "kind",
    ["missing field", "unknown keyword", "field given twice", "too many positionals"],
)
def test_record_constructor_rejects_misuse(kind):
    assert len(STORE_ONLY) == 9
    for cls, names, build in STORE_ONLY:
        values = tuple(getattr(build(), name) for name in names)
        args, kwargs = _misuse(kind, names, values)
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\(\)"):
            cls(*args, **kwargs)


def test_every_record_class_is_tested():
    # a new record class must join RECORDS, and so every test above
    package = importlib.import_module("lefschetz")
    for info in pkgutil.iter_modules(package.__path__, "lefschetz."):
        importlib.import_module(info.name)
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("lefschetz."):
                found.add(sub)
                todo.append(sub)
    assert found == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: cli.SweepConfig(1), "need 2 <= a_min <= a_max"),
        (lambda: cli.SweepConfig(3, a_min=4), "need 2 <= a_min <= a_max"),
        (lambda: cli.SweepConfig(3, trials=0), "trials must be at least 1"),
        (lambda: cli.SweepConfig(3, bound=0), "bound must be at least 1"),
        (lambda: cli.SweepConfig(3, jobs=0), "jobs must be at least 1"),
        (lambda: cli.SweepConfig(3, filter="some"), "unknown filter 'some'"),
        (lambda: quotient.SearchStrategy(trials=0), "trials must be at least 1"),
        (lambda: quotient.SearchStrategy(bound=-3), "bound must be at least 1"),
    ],
)
def test_invalid_config_keeps_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
