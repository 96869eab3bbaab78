"""Seeded inputs for the three workloads, written as `minhom` input files.

Each workload is a fixed list of operations.  An operation is one `minhom`
command line plus a check of its standard output; the check compares the
output with `oracle`, never with a stored output.  Sizes, targets and the
order of operations are the same for every seed; the seed draws the arcs,
the costs, the vertex names and the declaration order.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable

import oracle

COST_RANGE = (-20, 20)


@dataclass
class Op:
    """One command: `argv` for `minhom.cli.run`, and `check(stdout)`, which
    returns a list of problems (empty when the output is right)."""

    name: str
    argv: list
    check: Callable[[str], list]


class Files:
    """Writes input files under one directory; names are relative to the
    working directory the program runs in."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name, lines):
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return path

    def digraph(self, name, vertices, arcs):
        return self.write(name, [f"v {v}" for v in vertices] +
                          [f"a {t} {u}" for t, u in arcs])

    def costs(self, name, table):
        return self.write(name, [f"c {u} {i} {c}"
                                 for (u, i), c in table.items() if c])

    def bigraph(self, name, part1, part2, edges):
        return self.write(name, [f"p1 {v}" for v in part1] +
                          [f"p2 {v}" for v in part2] +
                          [f"e {u} {v}" for u, v in edges])


# -- input digraphs ---------------------------------------------------------


def names(rng, n, prefix="u"):
    """n distinct vertex names in a seeded declaration order."""
    vs = [f"{prefix}{k}" for k in range(n)]
    rng.shuffle(vs)
    return vs


def sparse_digraph(rng, n, loops):
    """About 2n random arcs, a planted directed cycle, and `loops` loops."""
    vs = names(rng, n)
    arcs = set()
    ring = rng.sample(vs, rng.randint(3, 8))
    arcs |= {(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))}
    while len(arcs) < 2 * n:
        t, u = rng.sample(vs, 2)
        if (u, t) not in arcs:
            arcs.add((t, u))
    arcs |= {(v, v) for v in rng.sample(vs, loops)}
    arcs = sorted(arcs)
    rng.shuffle(arcs)
    return vs, arcs


def directed_path(rng, n):
    vs = names(rng, n)
    return vs, [(vs[k], vs[k + 1]) for k in range(n - 1)]


def oriented(rng, edges):
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]


def oriented_tree(rng, n):
    """Random recursive tree with random arc directions."""
    vs = names(rng, n)
    return vs, oriented(rng, [(vs[rng.randrange(k)], vs[k])
                              for k in range(1, n)])


def caterpillar(rng, n):
    """A spine of about n/3 vertices; every other vertex hangs off it."""
    vs = names(rng, n)
    spine = max(2, n // 3)
    edges = [(vs[k], vs[k + 1]) for k in range(spine - 1)]
    edges += [(vs[rng.randrange(spine)], vs[k]) for k in range(spine, n)]
    return vs, oriented(rng, edges)


def random_costs(rng, vertices, labels):
    return {(u, i): rng.randint(*COST_RANGE) for u in vertices for i in labels}


def log_sizes(lo, hi, count):
    """`count` >= 2 sizes spaced evenly in log scale from lo to hi."""
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]


# -- checks -------------------------------------------------------------------


def parse_solve(out):
    lines = out.split("\n")
    if not lines or not lines[0].startswith("cost "):
        raise ValueError(f"first line is {lines[0]!r}, expected 'cost <n>'")
    cost = int(lines[0].split()[1])
    mapping = {}
    for line in lines[1:]:
        if not line:
            continue
        tag, u, i = line.split()
        if tag != "map" or u in mapping:
            raise ValueError(f"bad map line {line!r}")
        mapping[u] = i
    return cost, mapping


def solve_check(d_vertices, d_arcs, h_vertices, h_arcs, table, forest):
    """Check of a `solve` output for input D, target H and costs `table`."""
    def cost(u, i):
        return table.get((u, i), 0)

    def check(out):
        try:
            got, mapping = parse_solve(out)
        except (ValueError, IndexError) as exc:
            return [f"unparsable solve output: {exc}"]
        if set(mapping) != set(d_vertices):
            return ["map is not total on V(D)"]
        if not set(mapping.values()) <= set(h_vertices):
            return ["map leaves V(H)"]
        if not oracle.is_homomorphism(d_arcs, h_arcs, mapping):
            return ["map is not a homomorphism"]
        problems = []
        total = sum(cost(u, mapping[u]) for u in d_vertices)
        if total != got:
            problems.append(f"printed cost {got} != recomputed {total}")
        lower, upper = oracle.cost_bounds(d_vertices, d_arcs, h_vertices,
                                          h_arcs, cost)
        if got < lower:
            problems.append(f"cost {got} below per-vertex minimum {lower}")
        if upper is not None and got > upper:
            problems.append(f"cost {got} above constant map {upper}")
        better = oracle.improving_relabel(d_vertices, d_arcs, h_vertices,
                                          h_arcs, cost, mapping)
        if better is not None:
            problems.append(f"relabelling {better[0]} to {better[1]} is cheaper")
        if forest:
            exact = oracle.forest_min_cost(d_vertices, d_arcs, h_vertices,
                                           h_arcs, cost)
            if exact != got:
                problems.append(f"cost {got} != forest optimum {exact}")
        return problems

    return check


def parse_classification(out):
    """Fields of a classify-* output: verdict, ordering, witness."""
    got = {"notes": []}
    for line in out.split("\n"):
        if not line:
            continue
        tag, _, rest = line.partition(" ")
        if tag in ("verdict", "rule", "loop"):
            got[tag] = rest
        elif tag == "ordering":
            got["ordering"] = rest.split(",")
        elif tag == "witness":
            kind, _, body = rest.partition(" ")
            got["witness"] = (kind, body.split())
        elif tag == "structure":
            kind, _, body = rest.partition(" ")
            got["structure"] = (kind, [p.split("=", 1)[1] for p in body.split()])
        elif tag == "note":
            got["notes"].append(rest)
        else:
            raise ValueError(f"unexpected line {line!r}")
    return got


def witness_problems(h_vertices, h_arcs, got):
    if "witness" not in got:
        return ["np-hard verdict without a witness"]
    kind, body = got["witness"]
    if kind == "reflexive-cycle":
        ok = oracle.is_reflexive_cycle(h_vertices, h_arcs, body, got.get("loop"))
    elif kind == "bg-forbidden" and "structure" in got:
        skind, hosts = got["structure"]
        ok = oracle.is_bg_forbidden(h_vertices, h_arcs, body, skind, hosts)
    else:
        ok = False
    return [] if ok else [f"witness {kind} {body} does not validate"]


def classify_check(h_vertices, h_arcs, exhaustive_poly):
    """Check of a classify-general / classify-rmpt output.  With
    `exhaustive_poly`, the verdict must also be poly exactly when the
    exhaustive search finds a Min-Max ordering."""
    def check(out):
        try:
            got = parse_classification(out)
        except (ValueError, IndexError) as exc:
            return [f"unparsable classification: {exc}"]
        verdict = got.get("verdict")
        if verdict == "poly":
            order = got.get("ordering")
            if order is None:
                return ["poly verdict without an ordering"]
            if not oracle.is_minmax(h_vertices, h_arcs, order):
                return [f"ordering {order} is not Min-Max"]
        elif verdict == "np-hard":
            problems = witness_problems(h_vertices, h_arcs, got)
            if problems:
                return problems
        elif verdict == "unknown":
            if got["notes"]:
                return [f"unknown verdict with notes {got['notes']}"]
        else:
            return [f"unexpected verdict {verdict!r}"]
        if verdict == "unknown" or exhaustive_poly:
            found = oracle.find_minmax_ordering(h_vertices, h_arcs)
            if (found is not None) != (verdict == "poly"):
                return [f"verdict {verdict} but exhaustive search gives {found}"]
        return []

    return check


def pib_check(edges, planted):
    """Check of a pib-check output on a bigraph with these edges."""
    edge_set = {frozenset(e) for e in edges}

    def check(out):
        lines = [line for line in out.split("\n") if line]
        if not lines:
            return ["empty output"]
        if planted:
            if lines[0] != "verdict false" or len(lines) != 2:
                return [f"planted structure missed: {lines}"]
            _, kind, *pairs = lines[1].split()
            hosts = [p.split("=", 1)[1] for p in pairs]
            if not oracle.is_forbidden(edge_set, kind, hosts):
                return [f"witness {kind} {hosts} does not validate"]
            return []
        return [] if lines == ["verdict true"] else [f"PIB rejected: {lines}"]

    return check


# -- solve-wide -----------------------------------------------------------------

MINMAX_TARGETS = ("rc_tt4", "rc_tt5", "rc_ttminus6", "rc_k12", "t5_33")
TARGET_DEFS = {
    "rc_tt4": lambda: oracle.rc_tt(4),
    "rc_tt5": lambda: oracle.rc_tt(5),
    "rc_ttminus6": lambda: oracle.rc_ttminus(6),
    "rc_k12": oracle.rc_k12,
    "t5_33": lambda: oracle.t5("33"),
    "t5_223344": lambda: oracle.t5("223344"),
}
TARGET_DEFS.update({f"cycle{k}": (lambda k=k: oracle.cycle(k))
                    for k in range(3, 8)})


def solve_op(files, tag, target, d, table, forest, spec=None):
    dv, da = d
    hv, ha = TARGET_DEFS[target]()
    argv = ["solve", "--target", spec or target,
            "--input", files.digraph(f"{tag}.dg", dv, da),
            "--costs", files.costs(f"{tag}.cost", table)]
    return Op(f"{tag} {target} n={len(dv)}", argv,
              solve_check(dv, set(da), hv, set(ha), table, forest))


def solve_wide(seed, files):
    """66 random sparse digraphs (100-800 vertices) into the Min-Max targets
    and 34 small ones (10-12 vertices, every third an oriented tree) into
    t5_223344.  Brute-force time has a heavy tail that grows with size:
    at 14-16 vertices one instance in a hundred takes 0.3-2.4 s, and the
    solver's node budget comes within reach."""
    rng = random.Random(f"solve-wide/{seed}")
    t5_vertices, t5_arcs = oracle.t5("33")
    t5_file = files.digraph("t5_33.dg", t5_vertices, sorted(t5_arcs))
    ops = []
    for k, n in enumerate(log_sizes(100, 800, 66)):
        target = MINMAX_TARGETS[k % len(MINMAX_TARGETS)]
        d = sparse_digraph(rng, n, loops=max(1, n // 50))
        table = random_costs(rng, d[0], TARGET_DEFS[target]()[0])
        spec = t5_file if target == "t5_33" else None
        ops.append(solve_op(files, f"wide{k:02d}", target, d, table, False, spec))
    for k in range(34):
        n = 10 + k // 3 % 3
        if k % 3 == 0:
            d, forest = oriented_tree(rng, n), True
        else:
            d, forest = sparse_digraph(rng, n, loops=k % 2), False
        table = random_costs(rng, d[0], "1234")
        ops.append(solve_op(files, f"brute{k:02d}", "t5_223344", d, table,
                            forest))
    rng.shuffle(ops)
    return ops


# -- solve-deep -------------------------------------------------------------------

#: The one operation expected to fail: a directed path this long into
#: rc_tt5 overflows the interpreter stack in the recursive max-flow search.
RECURSION_PATH = 2000


def recursion_op(files):
    """A directed path of RECURSION_PATH vertices into rc_tt5 where only the
    first vertex pays (1, for label 1) and only the last pays (1, for any
    label above 1).  The optimum, 1, is a cut somewhere along the path, and
    the one augmenting path runs its whole length.  Names and costs do not
    depend on the seed."""
    d = directed_path(random.Random("solve-deep/recursion"), RECURSION_PATH)
    first, last = d[0][0], d[0][-1]
    table = {(first, "1"): 1}
    table.update({(last, i): 1 for i in "2345"})
    return solve_op(files, "recursion", "rc_tt5", d, table, True)


def solve_deep(seed, files):
    """Directed paths, oriented trees and caterpillars: 20 trees (300-1500
    vertices) and 59 directed paths (50-200) into rc_tt5, 20 paths and trees
    (300-1200) into cycle3..cycle7, and `recursion_op`."""
    rng = random.Random(f"solve-deep/{seed}")
    ops = []
    shapes = (oriented_tree, caterpillar)
    for k, n in enumerate(log_sizes(300, 1500, 20)):
        d = shapes[k % 2](rng, n)
        table = random_costs(rng, d[0], "12345")
        ops.append(solve_op(files, f"tree{k:02d}", "rc_tt5", d, table, True))
    # At most 200 vertices: the max-flow search depth is bounded by the
    # 4n + 2 network nodes, well below the interpreter's recursion limit.
    for k, n in enumerate(log_sizes(50, 200, 59)):
        d = directed_path(rng, n)
        table = random_costs(rng, d[0], "12345")
        ops.append(solve_op(files, f"dpath{k:02d}", "rc_tt5", d, table, True))
    for k, n in enumerate(log_sizes(300, 1200, 20)):
        target = f"cycle{3 + k % 5}"
        d = (directed_path, oriented_tree, caterpillar, directed_path)[k % 4](rng, n)
        table = random_costs(rng, d[0], TARGET_DEFS[target]()[0])
        ops.append(solve_op(files, f"rot{k:02d}", target, d, table, True))
    ops.append(recursion_op(files))
    rng.shuffle(ops)
    return ops


# -- classify ---------------------------------------------------------------------


def rmpt_classes(n):
    """One representative per isomorphism class of reflexive multipartite
    tournaments on vertices 1..n with at least two parts, keyed by
    canonical form, found by orienting every cross pair of every
    partition into contiguous parts."""
    classes = {}
    vs = [str(k) for k in range(1, n + 1)]

    def partitions(rest, smallest):
        if rest == 0:
            yield ()
        for first in range(smallest, rest + 1):
            for tail in partitions(rest - first, first):
                yield (first,) + tail

    for sizes in partitions(n, 1):
        if len(sizes) < 2:
            continue
        parts, start = [], 0
        for size in sizes:
            parts.append(vs[start:start + size])
            start += size
        cross = [(u, w) for a, b in combinations(parts, 2) for u in a for w in b]
        for bits in product((False, True), repeat=len(cross)):
            arcs = {(v, v) for v in vs}
            arcs |= {(w, u) if flip else (u, w)
                     for (u, w), flip in zip(cross, bits)}
            classes.setdefault(oracle.canonical_form(vs, arcs), arcs)
    return classes


def random_target(rng, n, arc_p, loop_p):
    """A digraph on n vertices with these arc and loop probabilities."""
    vs = names(rng, n, "h")
    arcs = {(t, u) for t in vs for u in vs if t != u and rng.random() < arc_p}
    arcs |= {(v, v) for v in vs if rng.random() < loop_p}
    return vs, sorted(arcs)


def relabelled(rng, vs, arcs, prefix):
    new = dict(zip(vs, names(rng, len(vs), prefix)))
    order = [new[v] for v in vs]
    rng.shuffle(order)
    return order, sorted((new[t], new[u]) for t, u in arcs)


def two_colouring(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    side = {}
    for start in adj:
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
    return side


def interval_block(rng, a, b, tag=""):
    """Connected bigraph with parts X = 0..a-1 and Y = 0..b-1 where x_k sees
    the interval [lo_k, hi_k] of Y, lo and hi never decrease, consecutive
    intervals overlap and the last reaches b-1: a proper interval bigraph
    by construction."""
    lo = hi = 0
    edges = []
    for k in range(a):
        if k:
            lo = min(hi, lo + rng.choice((0, 1, 1)))
            hi = min(b - 1, max(lo, hi + rng.choice((0, 1, 1, 2))))
        if k == a - 1:
            hi = b - 1
        edges += [((f"x{tag}", k), (f"y{tag}", j)) for j in range(lo, hi + 1)]
    return ([(f"x{tag}", k) for k in range(a)],
            [(f"y{tag}", j) for j in range(b)], edges)


PLANTS = ("long-induced-cycle", "bipartite-claw", "bipartite-net",
          "bipartite-tent")

#: Vertices in the connected main part of every bigraph; the rest forms a
#: separate interval block.  forbidden-structure search is exponential in
#: the component size, so this keeps each pib-check in tens of
#: milliseconds.
MAIN_PART = 11


def bigraph(rng, n, plant):
    """A bigraph of n > MAIN_PART vertices: a main part that is an interval
    block, or when `plant` names a structure, that structure joined to a
    smaller interval block by one edge (which keeps it induced and makes no
    cycle), and a separate interval block of the other vertices."""
    if plant is None:
        x, y, edges = interval_block(rng, MAIN_PART // 2,
                                     MAIN_PART - MAIN_PART // 2)
    else:
        if plant == "long-induced-cycle":
            k = rng.choice((6, 8))
            pattern = [(f"c{r}", f"c{(r + 1) % k}") for r in range(k)]
        else:
            pattern = oracle.PATTERNS[plant]
        side = two_colouring(pattern)
        rest = MAIN_PART - len(side)
        x, y, edges = interval_block(rng, rest // 2, rest - rest // 2)
        px = [("p", v) for v in side if side[v] == 0]
        py = [("p", v) for v in side if side[v] == 1]
        edges += [(("p", u), ("p", v)) if side[u] == 0 else (("p", v), ("p", u))
                  for u, v in pattern]
        if rng.random() < 0.5:
            edges.append((rng.choice(px), rng.choice(y)))
        else:
            edges.append((rng.choice(x), rng.choice(py)))
        x, y = x + px, y + py
    extra = n - MAIN_PART
    bx, by, bedges = interval_block(rng, extra // 2, extra - extra // 2, "2")
    x, y, edges = x + bx, y + by, edges + bedges
    name = dict(zip(x, names(rng, len(x), "a")))
    name.update(zip(y, names(rng, len(y), "b")))
    part1 = sorted(name[v] for v in x)
    part2 = sorted(name[v] for v in y)
    rng.shuffle(part1)
    rng.shuffle(part2)
    out = [(name[u], name[v]) for u, v in edges]
    rng.shuffle(out)
    return part1, part2, out


def classify(seed, files):
    """classify-general on 16 random 5-8 vertex targets (arc density cycling
    through 0.15/0.3/0.5, loop density 0/0.3/0.7/1 for four targets each),
    classify-rmpt on every class of 5-vertex reflexive multipartite
    tournaments, one enumerate-rmpt --n 5, and pib-check on 16 bigraphs of
    12-18 vertices, half of them with a planted forbidden structure."""
    rng = random.Random(f"classify/{seed}")
    ops = []
    for k in range(16):
        hv, ha = random_target(rng, 5 + k % 4, (0.15, 0.3, 0.5)[k % 3],
                               (0.0, 0.3, 0.7, 1.0)[k // 4])
        path = files.digraph(f"gen{k:02d}.dg", hv, ha)
        ops.append(Op(f"gen{k:02d} n={len(hv)}",
                      ["classify-general", "--target", path],
                      classify_check(hv, set(ha), exhaustive_poly=False)))
    rmpt5 = rmpt_classes(5)
    for k, arcs in enumerate(rmpt5.values()):
        hv, ha = relabelled(rng, [str(v) for v in range(1, 6)], arcs, "t")
        path = files.digraph(f"rmpt{k:03d}.dg", hv, ha)
        ops.append(Op(f"rmpt{k:03d}", ["classify-rmpt", "--target", path],
                      classify_check(hv, set(ha), exhaustive_poly=True)))
    ops.append(Op("enumerate5", ["enumerate-rmpt", "--n", "5"],
                  enumerate_check(rmpt5)))
    for k in range(16):
        plant = PLANTS[k // 2 % 4] if k % 2 else None
        p1, p2, edges = bigraph(rng, 12 + k % 7, plant)
        path = files.bigraph(f"pib{k:02d}.bg", p1, p2, edges)
        ops.append(Op(f"pib{k:02d} {plant or 'interval'}",
                      ["pib-check", "--input", path], pib_check(edges, plant)))
    rng.shuffle(ops)
    return ops


def enumerate_check(classes):
    """Check of `enumerate-rmpt --n 5` against the classes found here."""
    def check(out):
        forms, problems = set(), []
        for line in out.split("\n"):
            if not line:
                continue
            tag, _, arcs_field, verdict_field = line.split(" ")
            arcs = {tuple(a.split(">")) for a in arcs_field[5:].split(";")}
            vs = sorted({v for a in arcs for v in a})
            form = oracle.canonical_form(vs, arcs)
            if form in forms:
                problems.append(f"{line!r} repeats a class")
            forms.add(form)
            has_order = oracle.find_minmax_ordering(vs, arcs) is not None
            if has_order != (verdict_field == "verdict=poly"):
                problems.append(f"{verdict_field} but Min-Max ordering "
                                f"{'exists' if has_order else 'missing'}")
        if forms != set(classes):
            problems.append(f"{len(forms)} classes printed, "
                            f"{len(classes)} expected")
        return problems

    return check


WORKLOADS = {"solve-wide": solve_wide, "solve-deep": solve_deep,
             "classify": classify}
