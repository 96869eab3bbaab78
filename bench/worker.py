"""Runs one workload's operations through `minhom.cli.run`, in process.

    python3 bench/worker.py OPS_JSON RESULT_JSON SECONDS MIN_ROUNDS TRACE

OPS_JSON holds a list of argument lists.  The worker repeats the whole list
(a round) until at least SECONDS have passed and MIN_ROUNDS rounds have
run, one command at a time.  Before each command it times `reference()`.
It writes, per round, each command's latency and the reference time before
it, the exit codes, the distinct outputs of each completed operation, its
own peak RSS and, with TRACE=1, per-layer span totals to RESULT_JSON.  Run
it from the root of the repository: the program is imported from ./src.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

#: Seconds `reference()` takes on the machine every reported time is scaled
#: to.  A measured time t is reported as t * REFERENCE_S / r, where r is the
#: reference time measured next to it, so that a host that runs everything
#: slower for a while does not show as a slower program.
REFERENCE_S = 0.0005
_NAMES = [f"n{k}" for k in range(400)]
_ARCS = [(_NAMES[k], _NAMES[(k * m + c) % 400])
         for m, c in ((7, 3), (13, 5)) for k in range(400)]


def reference():
    """A fixed computation in the program's style (string-named graph,
    dicts, sets, sorting, BFS); it does not change with the program."""
    out = {}
    for t, h in _ARCS:
        out.setdefault(t, set()).add(h)
    level = {_NAMES[0]: 0}
    queue = [_NAMES[0]]
    for v in queue:
        for w in sorted(out.get(v, ())):
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    return sorted((d, v) for v, d in level.items())


def timed_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


# Public functions wrapped by spans, per layer: (module, attribute).
SPANS = {
    "cli": [("cli", "run")],
    "io": [("io", "parse_digraph"), ("io", "parse_costs"),
           ("io", "parse_bipartite")],
    "solver": [("solver", "solve_auto"), ("solver", "solve_minmax"),
               ("solver", "FlowNetwork.max_flow"),
               ("solver", "FlowNetwork.source_side"),
               ("solver", "solve_cycle"), ("solver", "solve_bruteforce"),
               ("solver", "is_homomorphism"), ("solver", "map_cost")],
    "minmax": [("minmax", "find_minmax"), ("minmax", "verify_minmax")],
    "birep": [("birep", "bg"), ("birep", "find_forbidden"),
              ("birep", "is_proper_interval_bigraph")],
    "classify": [("classify", "find_witness"), ("classify", "classify_general"),
                 ("classify", "classify_reflexive_mpt"),
                 ("classify", "enumerate_rmpt")],
    "digraph": [("digraph", "components"), ("digraph", "is_isomorphic")],
}
# Exit codes of a completed command: an answer, or "infeasible".
SUCCESS = (0, 2)
# Spans whose calls are also counted.
COUNTED = {"solver.solve_minmax", "solver.solve_cycle",
           "solver.solve_bruteforce", "minmax.find_minmax",
           "birep.find_forbidden", "digraph.is_isomorphic"}


class Tracer:
    """Span stack with per-name self time (span length minus the time of
    its child spans) and call counts."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.flow_nodes = 0
        self.flow_arcs = 0
        self.stack = []

    def wrap(self, name, fn):
        clock = time.perf_counter

        def span(*args, **kwargs):
            self.stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                length = clock() - start
                child = self.stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + length - child
                if self.stack:
                    self.stack[-1] += length
                if name in COUNTED:
                    self.calls[name] = self.calls.get(name, 0) + 1

        return span

    def install(self):
        """Replace each spanned function wherever a `minhom` module looks
        it up by name, and each spanned method on its class."""
        import minhom.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sys.modules.items()
                   if n == "minhom" or n.startswith("minhom.")]
        for layer, names in SPANS.items():
            for module, attr in names:
                home = sys.modules[f"minhom.{module}"]
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is not None and hasattr(cls, meth):
                        fn = self.wrap(name, getattr(cls, meth))
                        if meth == "max_flow":
                            fn = self.count_network(fn)
                        setattr(cls, meth, fn)
                    continue
                fn = getattr(home, attr, None)
                if fn is None:
                    continue
                wrapped = self.wrap(name, fn)
                for m in modules:
                    if getattr(m, attr, None) is fn:
                        setattr(m, attr, wrapped)

    def count_network(self, max_flow):
        """Add each network's node and arc count at max_flow entry, outside
        the max_flow span."""
        def counted(net, *args, **kwargs):
            self.flow_nodes += net.n
            self.flow_arcs += sum(len(out) for out in net.adj) // 2
            return max_flow(net, *args, **kwargs)

        return counted


def run_op(run, argv):
    """(latency_s, exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = run(argv, out=out)
        error = err.getvalue()
    except Exception as exc:  # a traceback the CLI let through
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), error


def main(ops_path, result_path, seconds, min_rounds, trace):
    with open(ops_path, encoding="utf-8") as handle:
        ops = json.load(handle)
    sys.path.insert(0, os.path.abspath("src"))
    import minhom.cli as cli

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    latencies, references = [], []
    codes = [{} for _ in ops]
    errors = [""] * len(ops)
    outputs = [[] for _ in ops]
    begin = time.perf_counter()
    while len(latencies) < min_rounds or time.perf_counter() - begin < seconds:
        latencies.append([])
        references.append([])
        for k, argv in enumerate(ops):
            references[-1].append(timed_reference())
            latency, code, out, error = run_op(cli.run, argv)
            latencies[-1].append(latency)
            codes[k][str(code)] = codes[k].get(str(code), 0) + 1
            errors[k] = errors[k] or error[-500:]
            if code in SUCCESS and out not in outputs[k]:
                outputs[k].append(out)
        if tracer and len(latencies) == 1:
            first = (dict(tracer.calls), tracer.flow_nodes, tracer.flow_arcs)
    result = {
        "latency_s": latencies,
        "reference_s": references,
        "codes": codes,
        "errors": errors,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        calls, nodes, arcs = first
        result["trace"] = {"self_s": tracer.self_s, "calls": calls,
                           "flow_nodes": nodes, "flow_arcs": arcs}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4]),
         sys.argv[5] == "1")
