"""Line-oriented text formats for digraphs, bipartite graphs, and costs.

All formats are UTF-8; `#` starts a comment; lines without tokens are
skipped.  Writers are deterministic: declarations in declaration order,
then sorted edge/arc lines, each ended by a newline (empty graph: no text).
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import itemgetter

from .birep import BipartiteGraph
from .digraph import Digraph, GraphError, _quoted
from .solver import _INT, CostMatrix


class FormatError(GraphError):
    """Malformed input file; the message carries the line number."""


def _lines(text: str):
    """(line number, tokens) of each line with tokens once its `#` comment
    is cut, by lazy maps over the lines; numbering counts skipped lines."""
    lines = text.splitlines()
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    return filter(itemgetter(1), enumerate(map(str.split, lines), 1))


def _text(lines: list[str]) -> str:
    """The lines, each ended by a newline: no text for no lines."""
    return "\n".join(lines) + "\n" if lines else ""


def parse_digraph(text: str) -> Digraph:
    """Parse `v <name>` / `a <tail> <head>` lines; arc endpoints are
    auto-declared in first-use order.

    The tokens already meet every rule of check_token but one: str.split
    leaves none empty or holding whitespace, _lines has cut every `#`, a
    repeated `v` line is refused below, and arc ends are declared as they
    are read.  So only a name with a comma sends the graph through
    Digraph's checks, which name it; otherwise it is wrapped as read."""
    # the declared names in order, as the keys of a dict: assigning a key
    # that is already there keeps its place
    names: dict[str, None] = {}
    arcs: list[tuple[str, str]] = []
    for lineno, toks in _lines(text):
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
            raise FormatError(f"line {lineno}: expected 'v <name>' or 'a <tail> <head>'")
    if "," not in "".join(names):
        return Digraph._wrap(tuple(names), frozenset(arcs))
    try:
        return Digraph(names, arcs)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def format_digraph(h: Digraph) -> str:
    out = [f"v {v}" for v in h.vertices]
    out += [f"a {t} {head}" for t, head in h.sorted_arcs()]
    return _text(out)


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse `p1 <name>` / `p2 <name>` / `e <u> <v>` lines.  Edge endpoints
    must be declared first (their part is ambiguous otherwise)."""
    part1: list[str] = []
    part2: list[str] = []
    edges: list[tuple[str, str]] = []
    declared: set[str] = set()
    for lineno, toks in _lines(text):
        if toks[0] in ("p1", "p2") and len(toks) == 2:
            if toks[1] in declared:
                raise FormatError(
                    f"line {lineno}: duplicate vertex {_quoted(toks[1])}")
            declared.add(toks[1])
            (part1 if toks[0] == "p1" else part2).append(toks[1])
        elif toks[0] == "e" and len(toks) == 3:
            for v in toks[1:]:
                if v not in declared:
                    raise FormatError(
                        f"line {lineno}: vertex {_quoted(v)} "
                        "used before declaration"
                    )
            edges.append((toks[1], toks[2]))
        else:
            raise FormatError(
                f"line {lineno}: expected 'p1 <name>', 'p2 <name>' or 'e <u> <v>'"
            )
    try:
        return BipartiteGraph(part1, part2, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def format_bipartite(g: BipartiteGraph) -> str:
    out = [f"p1 {v}" for v in g.part1]
    out += [f"p2 {v}" for v in g.part2]
    out += [f"e {u} {v}" for u, v in sorted(g.edges)]
    return _text(out)


def parse_costs(text: str) -> CostMatrix:
    """Parse `c <input-vertex> <target-vertex> <integer>` lines; duplicate
    entries are an error, unspecified entries default to 0."""
    entries: dict[tuple[str, str], int] = {}
    for lineno, toks in _lines(text):
        if len(toks) != 4 or toks[0] != "c":
            raise FormatError(f"line {lineno}: expected 'c <u> <i> <cost>'")
        _, u, i, cost = toks
        try:
            # int() alone would also read "1_000" and non-ASCII digits
            if "_" in cost or not cost.isascii():
                raise ValueError(cost)
            value = int(cost)
        except ValueError:
            if _INT.fullmatch(cost):  # the int-from-str digit limit
                raise FormatError(
                    f"line {lineno}: cost has more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
            raise FormatError(
                f"line {lineno}: cost {_quoted(cost)} is not an integer")
        key = (u, i)
        if key in entries:
            raise FormatError(f"line {lineno}: duplicate cost entry for "
                              f"({_quoted(u)}, {_quoted(i)})")
        entries[key] = value
    return CostMatrix._wrap(entries)


def format_costs(costs: CostMatrix) -> str:
    out = [f"c {u} {i} {c}" for (u, i), c in sorted(costs.entries.items())]
    return _text(out)
