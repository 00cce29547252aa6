"""Command-line interface.

Subcommands: ``dp`` (degree polynomials of a graph), ``family`` (standard
family sequences), ``op`` (the five graph operations, optionally verified
against their closed forms), ``check`` (necessary conditions on a
sequence), ``realize`` (exact realizability verdict and witnesses) and
``classify`` (all sequences at a fixed order).

Exit codes: 0 success, 1 usage or data errors, 2 for a checked-and-negative
verdict (a failed condition or a proven-unrealizable sequence).  Output is
deterministic for fixed inputs and flags; ``--format structured`` prints a
single JSON object.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from typing import Optional

from . import dp as dp_mod
from . import graphs
from . import realizability as realize_mod
from .dp import dp_report, verify_operation
from .errors import DegpolyError
from .graphs import OpKind, SimpleGraph, emit_dot, from_edge_list
from .poly import DegreePoly, format_poly

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the CLI reserves 2 for
    negative verdicts, so remap usage failures to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _int_at_least(low: int):
    """argparse ``type=`` converter for an integer flag with a lower bound;
    a bad value goes through ``_Parser.error`` and exits 1."""

    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names it in "invalid int value"
    return convert


FORMATS = ("text", "structured")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and each command's own parser, built once per
    process: parsing does not change them."""
    parser = _Parser(prog="degpoly", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (structured prints one JSON object)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, help=summary)
        return commands[name]

    p_dp = command("dp", "degree polynomials of a graph")
    p_dp.add_argument("graph", help="edge-list file path or inline edge list")

    p_family = command("family", "degree polynomial sequence of a family")
    p_family.add_argument("kind", choices=graphs.FAMILY_KINDS)
    p_family.add_argument("params", nargs="+", type=int)
    p_family.add_argument(
        "--closed-form",
        action="store_true",
        help="use the closed form instead of building the graph",
    )

    p_op = command("op", "apply a graph operation")
    p_op.add_argument("kind", choices=[k.value for k in OpKind])
    p_op.add_argument("graph1", help="edge-list file path or inline edge list")
    p_op.add_argument("graph2", nargs="?", help="second operand (binary operations)")
    p_op.add_argument(
        "--verify",
        action="store_true",
        help="check every vertex against the closed-form formula",
    )
    p_op.add_argument("--dot", action="store_true", help="emit the result as DOT")

    p_check = command("check", "necessary conditions on a sequence")
    p_check.add_argument("sequence", help="sequence file path or inline sequence")

    p_realize = command("realize", "realizability verdict and witnesses")
    p_realize.add_argument("sequence", help="sequence file path or inline sequence")
    p_realize.add_argument(
        "--max-n",
        type=_int_at_least(0),
        default=realize_mod.DEFAULT_SEARCH_MAX_N,
        help="order bound of the --all search",
    )
    p_realize.add_argument(
        "--all",
        action="store_true",
        help="collect every isomorphism class instead of one witness",
    )
    p_realize.add_argument("--dot", action="store_true", help="emit witnesses as DOT")
    p_realize.add_argument("--workers", type=_int_at_least(1), default=1)

    p_classify = command("classify", "all degree polynomial sequences at one order")
    p_classify.add_argument("--n", type=_int_at_least(1), required=True)
    p_classify.add_argument("--workers", type=_int_at_least(1), default=1)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    return _parsers()[0]


def _parse(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, or the same exit.

    The full parser hands everything after the command name to that
    command's parser and only adds ``format`` and ``command``.  So an
    optional leading ``--format X`` and the command name are peeled here,
    and the rest goes to the command's parser alone; whatever else the
    argv holds, or that parser leaves over, goes through the full parser,
    whose messages and exit codes stay argparse's own."""
    parser, commands = _parsers()
    fmt, at = "text", 0
    if len(argv) > 1 and argv[0] == "--format" and argv[1] in FORMATS:
        fmt, at = argv[1], 2
    command = commands.get(argv[at]) if len(argv) > at else None
    if command is not None:
        args, rest = command.parse_known_args(argv[at + 1 :])
        if not rest:
            args.format, args.command = fmt, argv[at]
            return args
    return parser.parse_args(argv)


def _read_input(arg: str) -> str:
    """An argument naming an existing file is read from disk; anything else
    is taken as inline literal content."""
    try:
        # access() reports a missing path without the exception that
        # isfile's stat raises and catches; a NUL raises ValueError.
        if os.access(arg, os.F_OK) and os.path.isfile(arg):
            with open(arg) as f:
                return f.read()
    except (OSError, ValueError):
        pass
    return arg


def _load_graph(arg: str) -> SimpleGraph:
    result = from_edge_list(_read_input(arg))
    for u, v in result.duplicate_edges:
        labels = result.graph.labels
        print(
            f"warning: duplicate edge {labels[u]} {labels[v]} collapsed",
            file=sys.stderr,
        )
    return result.graph


def _load_entries(arg: str) -> list[DegreePoly]:
    """The entries of a text or ``[[...]]`` sequence in input order."""
    text = _read_input(arg).strip()
    if text.startswith("["):
        try:
            return [DegreePoly.from_pairs(entry) for entry in json.loads(text)]
        except (TypeError, ValueError, RecursionError) as exc:
            raise DegpolyError(f"bad structured sequence: {exc}") from None
    return dp_mod.parse_entries(text)


# A structured object is a ``to_dict()`` tree, which may share the
# library's immutable tuples but is never cyclic, so the encoder skips its
# cycle check.  One encoder serves every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
# ``_ENCODER.encode`` builds json's C encoder on every call; this is the one
# it builds (no cycle markers, ASCII strings, no indent), made once.  None
# where json has no C accelerator, and then ``encode`` serves.
_C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
    _ENCODER.key_separator, _ENCODER.item_separator,
    _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)


def _emit(out: dict | list[str]) -> None:
    """Print a structured object as one JSON line, or text lines as they are."""
    if isinstance(out, dict):
        print("".join(_C_ENCODER(out, 0)) if _C_ENCODER else _ENCODER.encode(out))
    else:
        sys.stdout.write("".join(line + "\n" for line in out))


def _cmd_dp(args) -> int:
    _emit(_dp_output(args))
    return EXIT_OK


def _dp_output(args) -> dict | list[str]:
    """What ``dp`` prints.  The graph and its report die on return, so they
    are freed before ``_emit`` encodes."""
    g = _load_graph(args.graph)
    report = dp_report(g)
    if args.format == "structured":
        return {"command": "dp", **report.to_dict()}
    shown = {p: format_poly(p) for p in set(report.vertex_polys)}
    lines = [
        f"vertex {label}: degree {len(row)}, dp = {shown[p]}"
        for label, row, p in zip(g.labels, g.adj, report.vertex_polys)
    ]
    lines.append(f"dp(G) = {format_poly(report.graph_poly)}")
    if report.sequence is not None:
        lines.append("sequence: " + ", ".join(shown[p] for p in report.sequence))
        if report.regular_r is not None:
            lines.append(f"regular: r = {report.regular_r}")
    else:
        isolated = ", ".join(g.labels[v] for v in g.isolated_vertices())
        lines.append(f"sequence: unavailable (isolated vertices: {isolated})")
    return lines


def _cmd_family(args) -> int:
    if args.closed_form:
        g = None
        seq = dp_mod.closed_form_sequence(args.kind, *args.params)
    else:
        g = graphs.family(args.kind, *args.params)
        seq = dp_mod.degree_polynomial_sequence(g)
    if args.format == "structured":
        _emit({
            "command": "family",
            "kind": args.kind,
            "params": args.params,
            "closed_form": args.closed_form,
            "graph": None if g is None else g.to_dict(),
            "sequence": seq.to_pairs(),
        })
    elif g is None:
        _emit([f"sequence: {seq}"])
    else:
        _emit([f"graph: {g.n} vertices, {g.edge_count} edges", f"sequence: {seq}"])
    return EXIT_OK


def _cmd_op(args) -> int:
    out, ok = _op_output(args)
    _emit(out)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _op_output(args) -> tuple[dict | list[str], bool]:
    """What ``op`` prints, and False if a vertex disagrees with its closed
    form.  Every graph and the check die on return, so they are freed before
    ``_emit`` encodes."""
    op = OpKind(args.kind)
    g = _load_graph(args.graph1)
    h = None if args.graph2 is None else _load_graph(args.graph2)

    check = verify_operation(op, g, h) if args.verify else None
    result = check.result if check else graphs.apply_operation(op, g, h)
    ok = check is None or check.ok

    if args.format == "structured":
        verify = {} if check is None else {"verify": check.to_dict()}
        check = None  # frees the polynomials before the result graph is encoded
        obj = {"command": "op", "kind": op.value, "result": result.to_dict()}
        return {**obj, **verify}, ok
    lines = [f"result: {result.n} vertices, {result.edge_count} edges"]
    if args.dot:
        lines.append(emit_dot(result).rstrip("\n"))
    else:
        labels = result.labels
        lines.extend(f"{labels[u]} {labels[v]}" for u, v in result.edges())
    if check is not None:
        matched = check.vertices_checked - len(check.mismatches)
        lines.append(f"{matched}/{check.vertices_checked} vertices match formula")
    return lines, ok


def _condition_lines(report) -> list[str]:
    lines = [
        f"(a) {'PASS' if report.cond_a_pass else 'FAIL'}"
        f" (degree total {report.degree_total})",
    ]
    if report.cond_b_pass:
        lines.append("(b) PASS")
    else:
        j, e, c = report.cond_b_violation
        lines.append(f"(b) FAIL (entry {j + 1}: term {c}*x^{e} lacks partners)")
    lines.append(
        f"(c) {'PASS' if report.cond_c_pass else 'FAIL'}"
        f" (even-exponent sums: odd class {report.odd_class_even_exponent_sum},"
        f" even class {report.even_class_even_exponent_sum})"
    )
    projection = ",".join(str(x) for x in report.projection)
    graphical = "graphical" if report.projection_graphical else "not graphical"
    lines.append(f"projection ({projection}): {graphical}")
    return lines


def _cmd_check(args) -> int:
    # The raw entries, so that the report says whether they came presented.
    report = realize_mod.necessary_conditions(_load_entries(args.sequence))
    if args.format == "structured":
        sequence = report.sequence.to_pairs()
        _emit({"command": "check", "sequence": sequence, **report.to_dict()})
    else:
        lines = [f"sequence: {report.sequence}"]
        lines.extend(_condition_lines(report))
        lines.append("verdict: " + ("conditions pass" if report.all_pass
                                    else f"not realizable (condition {report.first_failure()})"))
        _emit(lines)
    return EXIT_OK if report.all_pass else EXIT_NEGATIVE


def _cmd_realize(args) -> int:
    report = realize_mod.realize(
        _load_entries(args.sequence),
        max_n=args.max_n,
        want_all_witnesses=args.all,
        workers=args.workers,
    )
    if args.format == "structured":
        _emit({"command": "realize", **report.to_dict()})
    else:
        lines = [f"sequence: {report.sequence}"]
        lines.extend(_condition_lines(report.conditions))
        if report.searched or report.exhaustive:
            scope = "exhaustive" if report.exhaustive else "not exhaustive"
            lines.append(f"{report.nonisomorphic_count} witnesses ({scope})")
            for i, w in enumerate(report.witnesses):
                if args.dot:
                    lines.append(emit_dot(w.graph()).rstrip("\n"))
                else:
                    edges = " ".join(f"{u}-{v}" for u, v in w.edges)
                    lines.append(f"witness {i + 1}: {edges}")
        lines.append(f"verdict: {report.reason}")
        _emit(lines)
    if report.realizable is False:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_classify(args) -> int:
    classified = realize_mod.classify_all(args.n, workers=args.workers)
    if args.format == "structured":
        _emit({
            "command": "classify",
            "n": args.n,
            "sequences": [entry.to_dict() for entry in classified],
        })
    else:
        lines = [f"{len(classified)} distinct sequences on {args.n} vertices"]
        for entry in classified:
            lines.append(f"{entry.isomorphism_classes} class(es): {entry.sequence}")
        _emit(lines)
    return EXIT_OK


_HANDLERS = {
    "dp": _cmd_dp,
    "family": _cmd_family,
    "op": _cmd_op,
    "check": _cmd_check,
    "realize": _cmd_realize,
    "classify": _cmd_classify,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # The command runs with the cyclic collector disabled, and the caller's
    # state is restored after: a caller that had it disabled keeps it
    # disabled.  No command builds reference cycles, so a collection would
    # find nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _HANDLERS[args.command](args)
    except DegpolyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
