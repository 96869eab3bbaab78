"""The file readers and the input checks against the per-line versions
they replaced.

parse_digraph, parse_costs and parse_bipartite read a file in C-level
passes (str.split over the lines, dict and set operations); Digraph,
CostMatrix.check_shape and is_homomorphism decide by set inclusions and
loop only to name the first offender.  The copies below are the earlier
per-line and per-entry versions: every text must give the same result, or
an error with the same message.  The parser copies build with today's
Digraph and BipartiteGraph, whose name check is pinned against the earlier
one over every code point.
"""

import enum
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minhom import (BipartiteGraph, CostMatrix, Digraph, FormatError,
                    GraphError, Ordering, format_bipartite, format_costs,
                    format_digraph, is_homomorphism, make_tt, parse_bipartite,
                    parse_costs, parse_digraph)
from minhom import digraph, io
from minhom.digraph import _quoted, check_token


# -- the earlier versions -------------------------------------------------


def old_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def old_parse_digraph(text):
    order, seen, arcs = [], set(), []

    def declare(name):
        if name not in seen:
            seen.add(name)
            order.append(name)

    for lineno, toks in old_lines(text):
        if toks[0] == "v" and len(toks) == 2:
            if toks[1] in seen:
                raise FormatError(f"line {lineno}: duplicate vertex {toks[1]!r}")
            declare(toks[1])
        elif toks[0] == "a" and len(toks) == 3:
            declare(toks[1])
            declare(toks[2])
            arcs.append((toks[1], toks[2]))
        else:
            raise FormatError(f"line {lineno}: expected 'v <name>' or 'a <tail> <head>'")
    try:
        return Digraph(order, arcs)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def old_parse_bipartite(text):
    part1, part2, edges, declared = [], [], [], set()
    for lineno, toks in old_lines(text):
        if toks[0] in ("p1", "p2") and len(toks) == 2:
            if toks[1] in declared:
                raise FormatError(f"line {lineno}: duplicate vertex {toks[1]!r}")
            declared.add(toks[1])
            (part1 if toks[0] == "p1" else part2).append(toks[1])
        elif toks[0] == "e" and len(toks) == 3:
            for v in toks[1:]:
                if v not in declared:
                    raise FormatError(
                        f"line {lineno}: vertex {v!r} used before declaration")
            edges.append((toks[1], toks[2]))
        else:
            raise FormatError(
                f"line {lineno}: expected 'p1 <name>', 'p2 <name>' or 'e <u> <v>'")
    try:
        return BipartiteGraph(part1, part2, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def old_parse_costs(text):
    entries = {}
    for lineno, toks in old_lines(text):
        if toks[0] != "c" or len(toks) != 4:
            raise FormatError(f"line {lineno}: expected 'c <u> <i> <cost>'")
        try:
            if "_" in toks[3] or not toks[3].isascii():
                raise ValueError(toks[3])
            value = int(toks[3])
        except ValueError:
            raise FormatError(f"line {lineno}: cost {toks[3]!r} is not an integer")
        key = (toks[1], toks[2])
        if key in entries:
            raise FormatError(f"line {lineno}: duplicate cost entry for {key}")
        entries[key] = value
    return CostMatrix._wrap(entries)


def old_check_token(name):
    if not isinstance(name, str) or not name:
        raise GraphError(f"vertex name must be a nonempty string, got {name!r}")
    if "," in name or "#" in name or any(ch.isspace() for ch in name):
        raise GraphError(
            f"bad vertex name {name!r}: whitespace, commas and '#' are not allowed")
    return name


def first_undeclared_arc(vertices, arcs):
    """The message of the Digraph arc check, naming the first arc in the
    order given with an undeclared end, or None."""
    declared = set(vertices)
    for t, h in ((str(t), str(h)) for t, h in arcs):
        if t not in declared or h not in declared:
            return f"arc ({t!r}, {h!r}) references an undeclared vertex"
    return None


def error_of(call, *args):
    try:
        call(*args)
    except GraphError as exc:
        return type(exc), str(exc)
    return None


def outcome(parse, text):
    """What parse makes of text: its fields in order, or its error."""
    try:
        got = parse(text)
    except FormatError as exc:
        return "error", str(exc)
    if isinstance(got, CostMatrix):
        return "ok", list(got.entries.items())
    if isinstance(got, Digraph):
        return "ok", got.vertices, got.arcs
    return "ok", got.part1, got.part2, got.edges


# -- texts ----------------------------------------------------------------

# tags, good and bad; names and costs with commas, '#', '_', signs and
# non-ASCII digits; separators and line breaks that str.split and
# str.splitlines both cut at
TAGS = ["v", "a", "c", "p1", "p2", "e", "V", "cc", "#", "c#"]
WORDS = ["u", "w", "x1", "\u0663", "u_1", "a,b", "u#c", "1", "2", "-2",
         "+3", "1_000", "\u0663\u0664", "007", "\xe9", "9" * 30]
SPACES = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2009",
          "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
          "\n\n"]
ALPHABET = "acvep12 #,_-\u0663\n\r\t\x0b\x0c\x1c\x85\xa0\u2028\u3000"


@st.composite
def texts(draw):
    """Line-structured texts, often with repeated lines, or raw text over
    a small alphabet."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet=ALPHABET, max_size=40))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if lines and draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(lines)))
            continue
        toks = [draw(st.sampled_from(TAGS))]
        toks += draw(st.lists(st.sampled_from(WORDS), max_size=4))
        lines.append("".join(draw(st.sampled_from(SPACES)) + tok
                             for tok in toks))
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


@settings(max_examples=400)
@given(texts())
def test_parsers_match_the_per_line_versions(text):
    for new, old in ((parse_digraph, old_parse_digraph),
                     (parse_costs, old_parse_costs),
                     (parse_bipartite, old_parse_bipartite)):
        assert outcome(new, text) == outcome(old, text), new.__name__


def test_parsers_match_on_hand_cases():
    cases = ["", "#\n", "v a # c\nv b\n", "a x y\nv x\n", "c u 1 3\nc u 1 3\n",
             "c u 1 \u0663\n", "c u 1 1_0\n", "p1 s\np2 t\ne s t\ne t s\n",
             "v a\x85a b c\n", "c u 1 3\x1cc u 2 4\n", "a a\u3000b\n"]
    for text in cases:
        for new, old in ((parse_digraph, old_parse_digraph),
                         (parse_costs, old_parse_costs),
                         (parse_bipartite, old_parse_bipartite)):
            assert outcome(new, text) == outcome(old, text), (text, new)


def test_check_token_over_every_code_point():
    # str.split() cuts at exactly the characters str.isspace() accepts
    for cp in range(0x110000):
        name = f"a{chr(cp)}b"
        assert error_of(check_token, name) == error_of(old_check_token, name)
    for name in ("", None, 3, ",", "#", " ", "ab"):
        assert error_of(check_token, name) == error_of(old_check_token, name)


# -- parse_digraph's own token check -------------------------------------


def checked_parse_digraph(text):
    """parse_digraph as it was while it sent every file through Digraph's
    checks: the same loop, then Digraph(names, arcs)."""
    names, arcs = {}, []
    for lineno, toks in io._lines(text):
        if len(toks) == 3 and toks[0] == "a":
            _, t, head = toks
            names[t] = names[head] = None
            arcs.append((t, head))
        elif len(toks) == 2 and toks[0] == "v":
            if toks[1] in names:
                raise FormatError(
                    f"line {lineno}: duplicate vertex {_quoted(toks[1])}")
            names[toks[1]] = None
        else:
            raise FormatError(
                f"line {lineno}: expected 'v <name>' or 'a <tail> <head>'")
    try:
        return Digraph(names, arcs)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


# every str.splitlines boundary, CRLF among them
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
             "\x85", "\u2028", "\u2029"]


def random_digraph_text(rng):
    """A digraph file of a few lines: declarations (some repeated), arcs
    (some repeated, some loops), comments, blank lines, names with commas
    and now and then a malformed line."""
    names = rng.sample(["u", "w", "x1", "\xe9", "7", "a,b", ",", "q,"],
                       rng.randint(1, 5))
    if rng.random() < 0.5:  # mostly comma-free files
        names = [v for v in names if "," not in v] or ["u"]
    lines = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.3:
            line = f"v {rng.choice(names)}"
        elif kind < 0.7:
            line = f"a {rng.choice(names)} {rng.choice(names)}"
        elif kind < 0.8 and lines:
            line = rng.choice(lines)
        elif kind < 0.9:
            line = rng.choice(["", "   ", "# a, b", "#"])
        else:
            line = rng.choice(["v", "a u", "v u w", "c u 1 2", "x"])
        if rng.random() < 0.2:
            line += rng.choice([" # note", "#, x", "\t#"])
        lines.append(rng.choice(["", " ", "\t"]) + line)
    return "".join(line + rng.choice(LINE_ENDS) for line in lines)


def test_parse_digraph_matches_the_fully_checked_reader(monkeypatch):
    # a comma-free file is wrapped as read, with no check_token call; any
    # other gives the same digraph or the same error as Digraph's checks
    calls = []

    def counted(name):
        calls.append(name)
        return check_token(name)

    monkeypatch.setattr(digraph, "check_token", counted)
    rng = random.Random(32)
    wrapped = 0
    for _ in range(3000):
        text = random_digraph_text(rng)
        want = outcome(checked_parse_digraph, text)
        calls.clear()
        assert outcome(parse_digraph, text) == want, text
        tokens = [t for _, toks in io._lines(text) for t in toks]
        if not any("," in t for t in tokens):
            assert calls == [], text
            wrapped += want[0] == "ok"
    assert wrapped > 500
    calls.clear()
    with pytest.raises(FormatError, match="bad vertex name 'a,b'"):
        parse_digraph("v u\na u a,b\n")
    assert calls == ["u", "a,b"]


# -- round trips ----------------------------------------------------------

NAMES = st.text(alphabet="uvw019_-+\u0663\xe9\u4e2d", min_size=1, max_size=4)


@st.composite
def digraphs(draw):
    vs = draw(st.lists(NAMES, unique=True, max_size=6))
    pairs = [(t, h) for t in vs for h in vs]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return Digraph(vs, arcs)


@settings(max_examples=200)
@given(digraphs())
def test_digraph_round_trip(h):
    assert parse_digraph(format_digraph(h)) == h


@settings(max_examples=200)
@given(st.lists(NAMES, unique=True, max_size=8), st.data())
def test_bipartite_round_trip(names, data):
    cut = data.draw(st.integers(0, len(names)))
    part1, part2 = names[:cut], names[cut:]
    pairs = [(u, v) for u in part1 for v in part2]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    g = BipartiteGraph(part1, part2, edges)
    assert parse_bipartite(format_bipartite(g)) == g


@settings(max_examples=200)
@given(st.dictionaries(st.tuples(NAMES, NAMES), st.integers(), max_size=10))
def test_costs_round_trip(entries):
    costs = CostMatrix(entries)
    assert parse_costs(format_costs(costs)) == costs


@pytest.mark.parametrize("empty, write, read", [
    (Digraph(()), format_digraph, parse_digraph),
    (BipartiteGraph((), ()), format_bipartite, parse_bipartite),
    (CostMatrix({}), format_costs, parse_costs)],
    ids=["digraph", "bipartite", "costs"])
def test_empty_objects_are_written_as_empty_text(empty, write, read):
    # each writer ends every line it writes with a newline: no lines, no text
    assert write(empty) == ""
    assert read(write(empty)) == empty


# -- checks that name their first offender --------------------------------


def test_digraph_names_the_first_bad_name_and_arc():
    with pytest.raises(GraphError, match="'a b'"):
        Digraph(("x", "a b", "c,d"))
    rng = random.Random(7)
    for _ in range(200):
        vs = [f"v{k}" for k in range(rng.randint(1, 6))]
        ends = vs + ["x", "y", 3]
        arcs = [(rng.choice(ends), rng.choice(ends))
                for _ in range(rng.randint(0, 8))]
        want = first_undeclared_arc(vs, arcs)
        got = error_of(Digraph, vs, arcs)
        assert got == (None if want is None else (GraphError, want))


def test_keys_arcs_and_edges_must_be_pairs():
    # a two-character string would unpack into a pair of characters, and a
    # 1- or 3-tuple would escape as a bare unpacking ValueError.  A str
    # subclass (an enum member, say) unpacks by character just the same
    class Name(str):
        pass

    class Label(str, enum.Enum):
        XY = "xy"

    for item in ("ab", Name("ab"), Label.XY, ("a",), ("a", "b", "c")):
        for what, call in (
                ("cost key", lambda: CostMatrix({("u", "1"): 1, item: 2})),
                ("arc", lambda: Digraph(("a", "b", "c"), [("a", "b"), item])),
                ("edge", lambda: BipartiteGraph(("a",), ("b", "c"),
                                                [("a", "b"), item]))):
            want = f"{what} {item!r} is not a pair"
            assert error_of(call) == (GraphError, want)
    # pairs of other types still normalise to str, as before
    assert Digraph(("1", "2"), [(1, 2)]).arcs == {("1", "2")}


# a container that is not a collection (of hashable keys, for a cost
# matrix) is refused with a GraphError naming the argument, not let
# through as a bare TypeError


def test_digraph_refuses_arguments_that_are_not_collections():
    not_iterable = "'{}' object is not iterable"
    assert error_of(Digraph, ["a"], 5) == (
        GraphError, "bad arcs: " + not_iterable.format("int"))
    assert error_of(Digraph, ["a"], None) == (
        GraphError, "bad arcs: " + not_iterable.format("NoneType"))
    assert error_of(Digraph, 5) == (
        GraphError, "bad vertices: " + not_iterable.format("int"))


def test_bipartite_graph_refuses_arguments_that_are_not_collections():
    assert error_of(BipartiteGraph, ["a"], ["b"], 5) == (
        GraphError, "bad edges: 'int' object is not iterable")
    assert error_of(BipartiteGraph, 5, ["b"]) == (
        GraphError, "bad part1: 'int' object is not iterable")
    assert error_of(BipartiteGraph, ["a"], None) == (
        GraphError, "bad part2: 'NoneType' object is not iterable")


def test_cost_matrix_refuses_arguments_that_are_not_collections():
    assert error_of(CostMatrix, 5) == (
        GraphError, "bad entries: 'int' object is not iterable")
    assert error_of(CostMatrix, [(["u", "1"], 2)]) == (
        GraphError, "bad entries: unhashable type: 'list'")
    assert error_of(CostMatrix, [(1, 2, 3)]) == (
        GraphError, "bad entries: dictionary update sequence element #0 "
        "has length 3; 2 is required")
    # no entries at all is still the empty matrix
    assert CostMatrix().entries == CostMatrix(None).entries == {}


def test_costs_beyond_the_digit_limit_are_named():
    # int() refuses a string of more digits than sys.get_int_max_str_digits()
    # with a bare ValueError; both readers say so in a GraphError, and the
    # file reader does not echo the token
    limit = sys.get_int_max_str_digits()
    for sign in ("", "-"):
        big = sign + "1" * (limit + 1)
        assert error_of(CostMatrix, {("u", "1"): big}) == (
            GraphError, f"cost entry ('u', '1') has more than {limit} digits")
        assert error_of(parse_costs, f"c u 1 2\nc u 2 {big}\n") == (
            FormatError, f"line 2: cost has more than {limit} digits")
    # the limit itself still reads
    assert CostMatrix({("u", "1"): "9" * limit}).entries[("u", "1")] > 0


def test_ordering_refuses_arguments_that_are_not_collections():
    assert error_of(Ordering, 5) == (
        GraphError, "bad sequence: 'int' object is not iterable")
    assert Ordering(iter(["b", "a"])).sequence == ("b", "a")
    assert BipartiteGraph(("1",), ("2",), [[2, 1]]).edges == {("1", "2")}


def test_check_shape_names_the_first_bad_entry():
    d = Digraph(("u", "w"), [("u", "w")])
    h = make_tt(3)
    rng = random.Random(8)
    for _ in range(200):
        keys = [(rng.choice(["u", "w", "zz", "q"]), rng.choice("1234"))
                for _ in range(rng.randint(0, 6))]
        costs = CostMatrix({key: 1 for key in keys})
        bad = [f"cost entry ({u!r}, {i!r}) does not match the instance shape"
               for u, i in costs.entries
               if u not in ("u", "w") or i not in ("1", "2", "3")]
        want = (GraphError, bad[0]) if bad else None
        assert error_of(costs.check_shape, d, h) == want
        # sets of names, as the part-respecting transformation passes them
        assert error_of(costs.check_shape, {"u", "w"}, {"1", "2", "3"}) == want


def test_is_homomorphism_names_the_first_bad_vertex():
    d = Digraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
    h = make_tt(3).reflexive_closure()
    assert is_homomorphism(d, h, {"a": "1", "b": "2", "c": "2"})
    assert not is_homomorphism(d, h, {"a": "3", "b": "2", "c": "2"})
    for mapping, message in (
            ({"a": "1", "c": "zz"}, "mapping is not total: missing 'b'"),
            ({"a": "1", "b": "zz"}, "image 'zz' is not a target vertex"),
            ({"a": "yy", "b": "zz", "c": "1"},
             "image 'yy' is not a target vertex")):
        assert error_of(is_homomorphism, d, h, mapping) == (GraphError, message)
