"""Batch command-line front end with stable, machine-parsable output.

Exit codes: 0 = success / feasible / classified, 2 = infeasible,
1 = usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import classify as cls
from . import io as fmt
from .birep import FORBIDDEN_GUARD, bg, is_proper_interval_bigraph
from .digraph import (QUOTE_LIMIT, Digraph, GraphError, _quoted, make_cycle,
                      make_oriented_kb, make_tt, make_tt_minus)
from .minmax import FIND_GUARD, Ordering, find_minmax, verify_minmax
from .solver import solve_auto, solve_bruteforce, solve_cycle, solve_minmax

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


#: Largest size in a built-in target name (rc_tt<p>, rc_ttminus<p>, cycle<k>).
BUILTIN_TARGET_LIMIT = 1000

_SIZED_TARGETS = {"rc_tt": lambda p: make_tt(p).reflexive_closure(),
                  "rc_ttminus": lambda p: make_tt_minus(p).reflexive_closure(),
                  "cycle": make_cycle}
_NAMED_TARGETS = {"rc_k12": lambda: make_oriented_kb(1, 2).reflexive_closure(),
                  "rc_k21": lambda: make_oriented_kb(2, 1).reflexive_closure()}


def resolve_target(spec: str) -> Digraph:
    """Expand a built-in target name, or read a digraph file."""
    m = re.fullmatch(r"(rc_tt|rc_ttminus|cycle)0*([0-9]+)", spec)
    if m:
        digits = m.group(2)  # length first: int() refuses over 4300 digits
        if (len(digits) > len(str(BUILTIN_TARGET_LIMIT))
                or int(digits) > BUILTIN_TARGET_LIMIT):
            raise GraphError(f"built-in target {_quoted(spec)} is too large: "
                             f"sizes are limited to {BUILTIN_TARGET_LIMIT}")
        return _SIZED_TARGETS[m.group(1)](int(digits))
    if spec in _NAMED_TARGETS:
        return _NAMED_TARGETS[spec]()
    m = re.fullmatch(r"t5_(none|(?:11|22|33|44)+)", spec)
    if m:
        return cls.build_theorem5_digraph(_parse_b(m.group(1)))
    return _read(spec, fmt.parse_digraph)


def _parse_b(text: str) -> frozenset[str]:
    if text in ("", "none"):
        return frozenset()
    # two-character tokens: t5_config rejects a stray character
    toks = (text.split(",") if "," in text
            else [text[k:k + 2] for k in range(0, len(text), 2)])
    return cls.t5_config(toks)


def _read(path: str, parser):
    """Parse a UTF-8 file; GraphError if it cannot be read or decoded."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:  # strerror: str(exc) repeats the path in full
        raise GraphError(f"cannot read {_quoted(path)}: "
                         f"{exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphError(f"cannot read {_quoted(path)}: not UTF-8 "
                         f"(byte {exc.start}: {exc.reason})") from exc
    except ValueError as exc:  # open() refuses a path with a NUL byte
        raise GraphError(f"cannot read {_quoted(path)}: {exc}") from exc
    return parser(text)


def _emit_structure(fs) -> str:
    pairs = " ".join(f"{lab}={v}" for lab, v in fs.embedding)
    return f"{fs.kind} {pairs}"


def _emit_witness(w: cls.Witness, out) -> None:
    if isinstance(w, cls.ReflexiveCycleWitness):
        print(f"witness reflexive-cycle {' '.join(w.cycle)}", file=out)
        print(f"loop {w.looped}", file=out)
    else:
        print(f"witness bg-forbidden {' '.join(w.subset)}", file=out)
        print(f"structure {_emit_structure(w.structure)}", file=out)


def _emit_classification(c: cls.Classification, out) -> None:
    print(f"verdict {c.verdict}", file=out)
    print(f"rule {c.rule}", file=out)
    if c.ordering is not None:
        print(f"ordering {c.ordering.serialize()}", file=out)
    if c.cycle is not None:
        print(f"cycle {','.join(c.cycle)}", file=out)
    if c.witness is not None:
        _emit_witness(c.witness, out)
    for note in c.notes:
        print(f"note {note}", file=out)


def _emit_solve(res, out) -> int:
    if not res.feasible:
        print("infeasible", file=out)
        return EXIT_INFEASIBLE
    try:
        line = f"cost {res.cost}"  # before any output: it may be too long
    except ValueError as exc:  # the int-to-str digit limit
        raise GraphError("the optimum has more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    print(line, file=out)
    # one write per line, not one for the whole map: with unbuffered
    # stdout a write that a closing reader cuts short raises nothing
    out.writelines(map("map {} {}\n".format, res.mapping.keys(),
                       res.mapping.values()))
    return EXIT_OK


def _integer(text: str, pattern: str, what: str) -> int:
    """int(text) if text fully matches pattern; argparse.ArgumentTypeError
    otherwise, or past int()'s digit limit, quoting text with _quoted (a
    ValueError would make argparse echo all of it)."""
    if not re.fullmatch(pattern, text):
        raise argparse.ArgumentTypeError(
            f"expected {what}, got {_quoted(text)}")
    try:
        return int(text)
    except ValueError:  # the int-from-str digit limit
        raise argparse.ArgumentTypeError(
            f"{_quoted(text)} has more than "
            f"{sys.get_int_max_str_digits()} digits") from None


def _guard(text: str) -> int:
    """A --guard value: a nonnegative integer (argparse exits otherwise)."""
    return _integer(text, r"[0-9]+", "a nonnegative integer")


def _size(text: str) -> int:
    """An --n value: ASCII digits with an optional sign (argparse exits
    otherwise); int() alone also takes other scripts' digits, underscores
    and spaces.  enumerate_rmpt itself refuses sizes out of range."""
    return _integer(text, r"[-+]?[0-9]+", "an integer")


class _UsageError(Exception):
    """A usage error of the command line: (parser, message)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises _UsageError where argparse would
    print the message and exit, so that run can cut the tokens it echoes."""

    def error(self, message):
        raise _UsageError(self, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minhom",
        description="Minimum cost homomorphism solving and target classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        return p

    add("solve",
        target={"required": True},
        input={"required": True},
        costs={"required": False},
        method={"default": "auto",
                "choices": ("auto", "minmax", "cycle", "brute")},
        ordering={"required": False},
        guard={"type": _guard, "default": FIND_GUARD})
    add("classify-rmpt", target={"required": True})
    add("classify-tournament", target={"required": True})
    add("classify-t5", b={"required": True})
    add("classify-general", target={"required": True},
        guard={"type": _guard, "default": FIND_GUARD})
    add("bg", target={"required": True})
    add("pib-check", target={"required": False}, input={"required": False},
        guard={"type": _guard, "default": FORBIDDEN_GUARD})
    add("minmax-verify", target={"required": True}, ordering={"required": True})
    add("minmax-find", target={"required": True},
        guard={"type": _guard, "default": FIND_GUARD})
    add("witness", target={"required": True})
    add("enumerate-rmpt", n={"type": _size, "required": True})
    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        parser, message = exc.args
        # argparse echoes a bad token in full, bare or as its repr
        for token in argv:
            if len(token) > QUOTE_LIMIT:
                message = message.replace(repr(token), token).replace(
                    token, _quoted(token))
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {message}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:  # --help
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return _dispatch(args, out)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args, out) -> int:
    cmd = args.command

    if cmd == "solve":
        if args.ordering is not None and args.method != "minmax":
            raise GraphError("--ordering applies only to --method minmax")
        h = resolve_target(args.target)
        d = _read(args.input, fmt.parse_digraph)
        costs = fmt.parse_costs("") if args.costs is None else \
            _read(args.costs, fmt.parse_costs)
        if args.method == "auto":
            res = solve_auto(d, h, costs, guard=args.guard)
        elif args.method == "brute":
            res = solve_bruteforce(d, h, costs)
        elif args.method == "cycle":
            res = solve_cycle(d, h, costs)
        else:
            if args.ordering is not None:
                ordering = Ordering.parse(args.ordering)
            else:
                ordering = find_minmax(h, guard=args.guard)
                if ordering is None:
                    raise GraphError("target has no Min-Max ordering")
            res = solve_minmax(d, h, ordering, costs)
        return _emit_solve(res, out)

    if cmd == "classify-rmpt":
        _emit_classification(cls.classify_reflexive_mpt(resolve_target(args.target)), out)
        return EXIT_OK

    if cmd == "classify-tournament":
        _emit_classification(cls.classify_tournament_wpl(resolve_target(args.target)), out)
        return EXIT_OK

    if cmd == "classify-t5":
        _emit_classification(cls.classify_theorem5(_parse_b(args.b)), out)
        return EXIT_OK

    if cmd == "classify-general":
        _emit_classification(
            cls.classify_general(resolve_target(args.target), guard=args.guard), out)
        return EXIT_OK

    if cmd == "bg":
        print(fmt.format_bipartite(bg(resolve_target(args.target))), end="", file=out)
        return EXIT_OK

    if cmd == "pib-check":
        if args.input is not None and args.target is not None:
            raise GraphError("pib-check takes --input (bipartite) or --target "
                             "(digraph), not both")
        if args.input is not None:
            g = _read(args.input, fmt.parse_bipartite)
        elif args.target is not None:
            g = bg(resolve_target(args.target))
        else:
            raise GraphError("pib-check needs --input (bipartite) or --target (digraph)")
        ok, fs = is_proper_interval_bigraph(g, guard=args.guard)
        print(f"verdict {'true' if ok else 'false'}", file=out)
        if fs is not None:
            print(f"witness {_emit_structure(fs)}", file=out)
        return EXIT_OK

    if cmd == "minmax-verify":
        h = resolve_target(args.target)
        ok, pair = verify_minmax(h, Ordering.parse(args.ordering))
        print(f"verdict {'true' if ok else 'false'}", file=out)
        if pair is not None:
            print(f"violating-pair {pair.e[0]}->{pair.e[1]} {pair.f[0]}->{pair.f[1]}",
                  file=out)
        return EXIT_OK

    if cmd == "minmax-find":
        ordering = find_minmax(resolve_target(args.target), guard=args.guard)
        print("none" if ordering is None else f"ordering {ordering.serialize()}",
              file=out)
        return EXIT_OK

    if cmd == "witness":
        w = cls.find_witness(resolve_target(args.target))
        if w is None:
            print("none", file=out)
        else:
            _emit_witness(w, out)
        return EXIT_OK

    if cmd == "enumerate-rmpt":
        graphs = cls.enumerate_rmpt(args.n)
        for idx, h in enumerate(graphs):
            verdict = cls.classify_reflexive_mpt(h).verdict
            arcs = ";".join(f"{t}>{head}" for t, head in h.sorted_arcs())
            print(f"rmpt {idx} arcs={arcs} verdict={verdict}", file=out)
        return EXIT_OK

    raise GraphError(f"unknown command {_quoted(cmd)}")


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`); send what is left
        # in the buffer to devnull so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
