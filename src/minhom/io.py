"""Line-oriented text formats for digraphs, bipartite graphs, and costs.

All formats are UTF-8, `#` starts a comment, blank lines are ignored.
Writers are deterministic: declarations first (in declaration order), then
edge/arc lines sorted lexicographically.
"""

from __future__ import annotations

from .birep import BipartiteGraph
from .digraph import Digraph, GraphError
from .solver import CostMatrix


class FormatError(GraphError):
    """Malformed input file; the message carries the line number."""


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_digraph(text: str) -> Digraph:
    """Parse `v <name>` / `a <tail> <head>` lines; arc endpoints are
    auto-declared in first-use order."""
    order: list[str] = []
    seen: set[str] = set()
    arcs: list[tuple[str, str]] = []

    def declare(name: str):
        if name not in seen:
            seen.add(name)
            order.append(name)

    for lineno, toks in _lines(text):
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


def format_digraph(h: Digraph) -> str:
    out = [f"v {v}" for v in h.vertices]
    out += [f"a {t} {head}" for t, head in h.sorted_arcs()]
    return "\n".join(out) + "\n"


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
                raise FormatError(f"line {lineno}: duplicate vertex {toks[1]!r}")
            declared.add(toks[1])
            (part1 if toks[0] == "p1" else part2).append(toks[1])
        elif toks[0] == "e" and len(toks) == 3:
            for v in toks[1:]:
                if v not in declared:
                    raise FormatError(
                        f"line {lineno}: vertex {v!r} used before declaration"
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
    return "\n".join(out) + "\n"


def parse_costs(text: str) -> CostMatrix:
    """Parse `c <input-vertex> <target-vertex> <integer>` lines; duplicate
    entries are an error, unspecified entries default to 0."""
    entries: dict[tuple[str, str], int] = {}
    for lineno, toks in _lines(text):
        if toks[0] != "c" or len(toks) != 4:
            raise FormatError(f"line {lineno}: expected 'c <u> <i> <cost>'")
        try:
            # int() alone would also read "1_000" and non-ASCII digits
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


def format_costs(costs: CostMatrix) -> str:
    out = [f"c {u} {i} {c}" for (u, i), c in sorted(costs.entries.items())]
    return "\n".join(out) + ("\n" if out else "")
