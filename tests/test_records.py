"""The package's ten record classes against frozen dataclass twins.

Each record class derives equality, hash, repr and immutability from one
base (digraph._Record) and its own _fields.  The twins below are
@dataclass(frozen=True) classes with the same names and fields, built
here from the field values of each sample record: both must agree on ==
and !=, on whether a record hashes (and on the TypeError when it does
not), on repr, and on the errors of assignment and deletion.  Equal
records must hash equal; the hash values themselves are not pinned.
"""

import dataclasses
import inspect

import pytest

from minhom import (ArcPair, BGForbiddenWitness, BipartiteGraph,
                    Classification, CostMatrix, Digraph, ForbiddenStructure,
                    Ordering, ReflexiveCycleWitness, SolveResult)
from minhom.digraph import _Record

# the fields of each class in order, as they were declared on the
# dataclasses; Classification's last four have defaults
FIELDS = {
    Digraph: ["vertices", "arcs"],
    BipartiteGraph: ["part1", "part2", "edges"],
    ForbiddenStructure: ["kind", "embedding"],
    Ordering: ["sequence"],
    ArcPair: ["e", "f"],
    CostMatrix: ["entries"],
    SolveResult: ["mapping", "cost", "method"],
    ReflexiveCycleWitness: ["cycle", "looped"],
    BGForbiddenWitness: ["subset", "structure"],
    Classification: ["verdict", "rule", ("ordering", None),
                     ("witness", None), ("cycle", None), ("notes", ())],
}


def twin_class(cls):
    specs = [(f[0], object, dataclasses.field(default=f[1]))
             if isinstance(f, tuple) else f for f in FIELDS[cls]]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


TWINS = {cls: twin_class(cls) for cls in FIELDS}


def twin(record):
    cls = type(record)
    return TWINS[cls](*(getattr(record, name) for name in cls._fields))


def samples():
    """Per class, records that are equal (built separately) and unequal."""
    arc = ("a", "b")
    claw = ForbiddenStructure("bipartite-claw", (("x1", "a"), ("y1", "b")))
    cycle = ReflexiveCycleWitness(("a", "b", "c"), "a")
    return {
        Digraph: [Digraph("ab", [arc]), Digraph(["a", "b"], [arc]),
                  Digraph("ab"), Digraph("ba", [arc]),
                  Digraph("ab", [arc]).reflexive_closure()],
        BipartiteGraph: [BipartiteGraph("a", "b", [arc]),
                         BipartiteGraph(["a"], ["b"], [arc[::-1]]),
                         BipartiteGraph("a", "b"), BipartiteGraph("b", "a")],
        ForbiddenStructure: [
            claw, ForbiddenStructure("bipartite-claw",
                                     (("x1", "a"), ("y1", "b"))),
            ForbiddenStructure("bipartite-net", claw.embedding)],
        Ordering: [Ordering("ab"), Ordering(["a", "b"]), Ordering("ba"),
                   Ordering(())],
        ArcPair: [ArcPair(arc, ("c", "d")), ArcPair(arc, ("c", "d")),
                  ArcPair(("c", "d"), arc)],
        CostMatrix: [CostMatrix({("u", "a"): 1}), CostMatrix({("u", "a"): "1"}),
                     CostMatrix(), CostMatrix({("u", "a"): -1})],
        SolveResult: [SolveResult({"u": "a"}, 3, "minmax"),
                      SolveResult({"u": "a"}, 3, "minmax"),
                      SolveResult(None, None, "minmax"),
                      SolveResult(None, None, "minmax")],
        ReflexiveCycleWitness: [cycle, ReflexiveCycleWitness(("a", "b", "c"),
                                                             "a"),
                                ReflexiveCycleWitness(("a", "b", "c"), "b")],
        BGForbiddenWitness: [BGForbiddenWitness(("a", "b"), claw),
                             BGForbiddenWitness(("a", "b"), claw),
                             BGForbiddenWitness(("b", "a"), claw)],
        Classification: [Classification("poly", "minmax", Ordering("ab")),
                         Classification("poly", "minmax",
                                        ordering=Ordering("ab")),
                         Classification("np-hard", "witness", witness=cycle),
                         Classification("unknown", "none", cycle=("a",),
                                        notes=("n",)),
                         Classification("unknown", "none", None, None, None,
                                        ())],
    }


def outcome(call, *args):
    """("ok", what call returns) or (the class of its error, its message)."""
    try:
        return "ok", call(*args)
    except (TypeError, AttributeError) as exc:
        return type(exc), str(exc)


def test_every_record_is_a_record_and_no_dataclass():
    for cls in FIELDS:
        assert issubclass(cls, _Record)
        assert cls._fields == tuple(f if isinstance(f, str) else f[0]
                                    for f in FIELDS[cls])
        assert not hasattr(cls, "__dataclass_fields__")


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_records_match_frozen_dataclass_twins(cls):
    records = samples()[cls]
    for a in records:
        assert repr(a) == repr(twin(a))
        # a dict field is unhashable in both, with the same TypeError
        ours, theirs = outcome(hash, a), outcome(hash, twin(a))
        assert ours[0] == theirs[0]
        if ours[0] != "ok":
            assert ours == theirs
        for b in records:
            assert (a == b) == (twin(a) == twin(b)), (a, b)
            assert (a != b) == (twin(a) != twin(b)), (a, b)
            if a == b and ours[0] == "ok":
                assert hash(a) == hash(b), (a, b)
        # the twin raises FrozenInstanceError, a subclass of AttributeError
        for name in (*cls._fields, "other"):
            for attempt in (lambda r: setattr(r, name, 0),
                            lambda r: delattr(r, name)):
                theirs = outcome(attempt, twin(a))
                assert issubclass(theirs[0], AttributeError)
                assert outcome(attempt, a) == (AttributeError, theirs[1])
        assert a != tuple(getattr(a, name) for name in cls._fields)


def test_unhashable_fields_raise_type_error():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(CostMatrix())
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(SolveResult({}, 0, "brute"))
    assert hash(SolveResult(None, None, "brute")) == \
        hash(SolveResult(None, None, "brute"))


def test_classification_keeps_its_keyword_defaults():
    ours = inspect.signature(Classification).parameters
    theirs = inspect.signature(TWINS[Classification]).parameters
    assert [(p.name, p.kind, p.default) for p in ours.values()] == \
        [(p.name, p.kind, p.default) for p in theirs.values()]
    assert Classification("poly", "minmax") == \
        Classification("poly", "minmax", None, None, None, ())


def test_records_of_different_classes_with_equal_fields_differ():
    arc, other = ("a", "b"), ("c", "d")
    pair = ArcPair(arc, other)
    for record in (ReflexiveCycleWitness(arc, other),
                   BGForbiddenWitness(arc, other),
                   ForbiddenStructure(arc, other)):
        assert pair != record and not pair == record
        assert twin(pair) != twin(record)
    assert Ordering("ab") != ReflexiveCycleWitness(("a", "b"), "a")
    assert Digraph("ab") != BipartiteGraph("a", "b")


def test_cached_properties_survive_immutability():
    d = Digraph("ab", [("a", "b")])
    assert d.adjacency == (((1,), ()), ((), (0,)), (False, False))
    assert "adjacency" in vars(d)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        d.adjacency = None
    g = BipartiteGraph("a", "b", [("a", "b")])
    assert g.vertices == ("a", "b") and g.digraph.arcs == g.edges
    assert g == BipartiteGraph("a", "b", [("b", "a")])
