"""The value types: immutable slotted classes that compare, hash, print,
pickle and copy by their constructor's fields."""

import copy
import pickle

import pytest

from availkit import (
    AvailabilityReport,
    Bridge,
    Component,
    ComponentLine,
    Diagnostic,
    Edge,
    KofN,
    Leaf,
    Model,
    Network,
    Parallel,
    ParseDiagnostic,
    Probability,
    Series,
    SourceSpan,
)
from availkit.network import ReducedNetwork

MAINT = dict(mtbf_h=20000.0, mttres_h=3.0, mldt_h=2.0, madt_h=1.0, pnrs=0.95, tat_h=72.0)
MAINT_REPR = (
    "{'mtbf_h': 20000.0, 'mttres_h': 3.0, 'mldt_h': 2.0, 'madt_h': 1.0, 'pnrs': 0.95,"
    " 'tat_h': 72.0}"
)
NET = Network([Edge("e1", "s", "t", "a")], "s", "t")

# The repr of one instance of each type, as the frozen dataclasses wrote it.
CASES = [
    (Leaf("a"), "Leaf(component_id='a')"),
    (
        Series([Leaf("a"), Leaf("b")]),
        "Series(children=(Leaf(component_id='a'), Leaf(component_id='b')))",
    ),
    (Parallel((Leaf("a"),)), "Parallel(children=(Leaf(component_id='a'),))"),
    (
        KofN(2, [Leaf("a"), Leaf("b"), Leaf("c")]),
        "KofN(k=2, children=(Leaf(component_id='a'), Leaf(component_id='b'),"
        " Leaf(component_id='c')))",
    ),
    (
        Bridge(Leaf("a"), Leaf("b"), Leaf("c"), Leaf("d"), Leaf("e")),
        "Bridge(b1=Leaf(component_id='a'), b2=Leaf(component_id='b'), b3=Leaf(component_id='c'),"
        " b4=Leaf(component_id='d'), b5=Leaf(component_id='e'))",
    ),
    (Component("a", {"availability": 0.99}), "Component(id='a', fields={'availability': 0.99})"),
    (
        Component("web", {"mtbf_h": 5000, "mdt_h": 2}),
        "Component(id='web', fields={'mtbf_h': 5000.0, 'mdt_h': 2.0})",
    ),
    (Component("db", MAINT), f"Component(id='db', fields={MAINT_REPR})"),
    (
        Diagnostic("warning", "components.x", "component 'x' is never used"),
        "Diagnostic(severity='warning', path='components.x', message=\"component 'x' is never used\")",
    ),
    (SourceSpan(1, 4), "SourceSpan(line=1, column=4)"),
    (
        ParseDiagnostic("error", "bad", SourceSpan(1, 4)),
        "ParseDiagnostic(severity='error', message='bad', span=SourceSpan(line=1, column=4))",
    ),
    (Edge("e1", "s", "t", "a"), "Edge(id='e1', a='s', b='t', component_id='a')"),
    (
        Network([Edge("e1", "s", "s", "a")], "s", "s"),
        "Network(edges=(Edge(id='e1', a='s', b='s', component_id='a'),), source='s', terminal='s')",
    ),
    (
        ReducedNetwork(Network([Edge("e1", "s", "s", "a")], "s", "s"), {"par(e1,e2)": 0.5}),
        "ReducedNetwork(network=Network(edges=(Edge(id='e1', a='s', b='s', component_id='a'),),"
        " source='s', terminal='s'), synthetic={'par(e1,e2)': 0.5})",
    ),
    (ComponentLine("db", 0.999, 8.68), "ComponentLine(id='db', availability=0.999, mdt_h=8.68)"),
    (
        AvailabilityReport(0.99, 0.01, 2, 5256.0, (ComponentLine("a", 0.99, None),)),
        "AvailabilityReport(availability=0.99, unavailability=0.01, nines=2,"
        " downtime_minutes_per_year=5256.0,"
        " per_component=(ComponentLine(id='a', availability=0.99, mdt_h=None),))",
    ),
    (
        Model({"a": Component("a", {"availability": 0.99})}, Series((Leaf("a"),))),
        "Model(components={'a': Component(id='a', fields={'availability': 0.99})},"
        " system=Series(children=(Leaf(component_id='a'),)))",
    ),
    (
        Model({"a": Component("a", {"availability": 0.99})}, NET),
        "Model(components={'a': Component(id='a', fields={'availability': 0.99})},"
        " system=Network(edges=(Edge(id='e1', a='s', b='t', component_id='a'),),"
        " source='s', terminal='t'))",
    ),
]
VALUES = [value for value, _ in CASES]
IDS = [f"{type(value).__name__}{i}" for i, value in enumerate(VALUES)]
# ReducedNetwork holds a dict, and so cannot be hashed, as before.
HASHABLE = [value for value in VALUES if not isinstance(value, ReducedNetwork)]


def test_every_value_type_is_covered():
    assert len({type(value) for value in VALUES}) == 15


@pytest.mark.parametrize("value,expected", CASES, ids=IDS)
def test_repr(value, expected):
    assert repr(value) == expected


def test_kinds_with_the_same_fields_differ():
    kids = (Leaf("a"), Leaf("b"))
    assert Series(kids) != Parallel(kids)
    assert Series(kids) == Series(list(kids))
    assert Leaf("a") != "a" and Leaf("a") != ("a",)


@pytest.mark.parametrize("value", HASHABLE, ids=lambda v: type(v).__name__)
def test_equal_values_hash_equal(value):
    twin = copy.deepcopy(value)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)


def test_model_hashes_by_its_system_only():
    a = Model({"a": Component("a", {"availability": 0.9})}, Leaf("a"))
    b = Model({"a": Component("a", {"availability": 0.5})}, Leaf("a"))
    assert a != b and hash(a) == hash(b) == hash((Leaf("a"),))


def test_component_equality_ignores_the_derived_numbers():
    c = Component("b", {"mtbf_h": 1000.0, "mdt_h": 10.0})
    other = Component("b", {"mdt_h": 10, "mtbf_h": 1000})
    object.__setattr__(other, "availability", 0.5)
    object.__setattr__(other, "mdt_h", None)
    assert other == c and hash(other) == hash(c)
    assert c != Component("b", {"mtbf_h": 1000.0, "mdt_h": 11.0})
    assert c != Component("c", {"mtbf_h": 1000.0, "mdt_h": 10.0})


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_derived_numbers_cannot_be_assigned():
    c = Component("a", {"availability": 0.9})
    with pytest.raises(AttributeError):
        c.availability = 0.5
    with pytest.raises(AttributeError):
        del c.mdt_h


@pytest.mark.parametrize("value", VALUES, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal(value, clone):
    twin = clone(value)
    assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_copied_component_keeps_its_numbers():
    c = Component("db", MAINT)
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert float(twin.availability).hex() == float(c.availability).hex()
        assert twin.mdt_h == c.mdt_h


def test_replace_derives_the_numbers_afresh():
    c = Component("b", {"mtbf_h": 1000.0, "mdt_h": 10.0})
    d = c.replace(fields={"mtbf_h": 90.0, "mdt_h": 10.0})
    assert float(d.availability) == 0.9 and d.mdt_h == 10.0
    assert float(d.availability).hex() == float(d.replace().availability).hex()
    assert c.replace() == c and c.replace(id="z").id == "z"


def test_replace_runs_the_constructor_checks():
    db = Component("db", MAINT)
    with pytest.raises(ValueError, match="^component 'db': tat_h must be a finite value >= 0"):
        db.replace(fields={**MAINT, "tat_h": -1.0})
    pnrs = db.replace(fields={**MAINT, "pnrs": 1}).fields["pnrs"]
    assert type(pnrs) is float and pnrs == 1.0
    with pytest.raises(ValueError, match="non-empty"):
        Component("a", {"availability": 0.9}).replace(id="")


@pytest.mark.parametrize("name", ["availability", "mdt_h", "children", "nope"])
def test_replace_rejects_a_name_the_constructor_does_not_take(name):
    with pytest.raises(TypeError):
        Component("a", {"availability": 0.9}).replace(**{name: 0.5})


# Every id and node is a str, checked when its value is built, with one message.
STRING_FIELDS = [
    (lambda v: Leaf(v), "component id"),
    (lambda v: Edge(v, "s", "t", "x"), "edge id"),
    (lambda v: Edge("e0", v, "t", "x"), "node"),
    (lambda v: Edge("e0", "s", v, "x"), "node"),
    (lambda v: Edge("e0", "s", "t", v), "component id"),
    (lambda v: Network([Edge("e0", "s", "t", "x")], v, "t"), "node"),
    (lambda v: Network([Edge("e0", "s", "t", "x")], "s", v), "node"),
    (lambda v: Component(v, {"availability": 0.9}), "component id"),
]


@pytest.mark.parametrize("value", [5, ["x"], ("x",), None], ids=["int", "list", "tuple", "None"])
@pytest.mark.parametrize(
    "build, what",
    STRING_FIELDS,
    ids=["Leaf.component_id", "Edge.id", "Edge.a", "Edge.b", "Edge.component_id",
         "Network.source", "Network.terminal", "Component.id"],
)
def test_an_id_or_node_that_is_not_a_string_is_refused_when_built(build, what, value):
    with pytest.raises(TypeError) as info:
        build(value)
    assert str(info.value) == f"{what} {value!r} is not a string"


def test_replace_refuses_an_id_or_node_that_is_not_a_string():
    with pytest.raises(TypeError) as info:
        NET.replace(source=["q"])
    assert str(info.value) == "node ['q'] is not a string"
    with pytest.raises(TypeError) as info:
        Leaf("a").replace(component_id=5)
    assert str(info.value) == "component id 5 is not a string"
