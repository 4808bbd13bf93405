"""Command-line front end.

Every operation is exposed on serialized inputs so experiments are scriptable
and reproducible: identical invocations print identical bytes.  Domain errors
exit 1 with a machine-readable JSON object on stderr; malformed inputs exit 2
with a ParseError object, argv the parser rejects included (--help exits 0).

run_command may be called many times in one process.  It builds its
argument parser once, on the first call, so each call then costs only the
parsing of its own argv and its own command.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from .errors import ArtinMarkError, ParseError, UnknownFormat, UnsupportedType
from .garside import GarsideContext, context, normalize, parse_element
from .graph import bfs, export_graph, json_text, standard_marking_connectivity
from .marking import (
    Marking,
    enumerate_flip_moves,
    marking_stabilizer,
    projection,
    standardize_marking,
    standard_transversals,
    twist_move,
    validate_marking,
)
from .parabolic import ParabolicSubgroup, conjugacy_edge_count, standard_conjugate
from .simplex import CparabSimplex, enumerate_maximal_standard


def parse_payload(ctx: GarsideContext, text: str, kind: str):
    """Parse a serialized domain value; round-trips the module serializers."""
    if kind == "element":
        return parse_element(ctx, text.strip())
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON payload: {err.msg}", err.pos) from err
    try:
        if kind == "parabolic":
            return ParabolicSubgroup.from_json(ctx, data)
        if kind == "simplex":
            return CparabSimplex.from_json(ctx, data)
        if kind == "marking":
            return Marking.from_json(ctx, data)
    except (AttributeError, KeyError, TypeError) as err:
        raise ParseError(f"malformed payload: {err}") from err
    raise ParseError(f"unknown payload kind {kind!r}")


def _read(args: argparse.Namespace, value: str | None) -> str:
    if value is None or value == "-":
        if args.seed_file:
            try:
                with open(args.seed_file, "r", encoding="utf-8") as handle:
                    return handle.read()
            except (OSError, UnicodeDecodeError) as err:
                raise ParseError(f"cannot read --seed-file: {err}") from err
        return sys.stdin.read()
    return value


def _gens(ctx: GarsideContext, csv: str) -> frozenset[int]:
    return frozenset(ctx.graph.index(name.strip()) for name in csv.split(",") if name.strip())


def _emit(args: argparse.Namespace, payload, text_form=None):
    print(json_text(payload) if args.format == "json" or text_form is None else text_form)


def _marking_arg(ctx: GarsideContext, args: argparse.Namespace) -> Marking:
    marking = parse_payload(ctx, _read(args, getattr(args, "marking", None)), "marking")
    index = getattr(args, "index", None)
    if index is not None and not 0 <= index < len(marking):
        raise ParseError(f"--index {index} is outside 0..{len(marking) - 1}")
    return marking


def _integer(flag: str, minimum: int | None = None):
    """The argparse type of an integer option.  Only ASCII [+-]?[0-9]+ is an
    integer (int() alone also reads other Unicode digits)."""

    def read(text: str) -> int:
        if not re.fullmatch("[+-]?[0-9]+", text):
            raise ParseError(f"{flag} {text!r} is not an integer")
        if minimum is not None and int(text) < minimum:
            raise ParseError(f"{flag} {int(text)} is below {minimum}")
        return int(text)

    return read


class _Parser(argparse.ArgumentParser):
    """Raises ParseError where argparse prints usage and exits 2 (subcommands too)."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="artinmark",
        description="Garside calculus and marking graphs for finite-type Artin groups",
    )
    parser.add_argument("--type", required=True, help="type spec, e.g. A3, B4, I2(7)")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument(
        "--bound-k", default="4", type=_integer("--bound-k", 0),
        help="stabilizer-probe window: Delta^e w with |e| and the length of w at most this",
    )
    parser.add_argument("--radius", default="1", type=_integer("--radius", 0), help="BFS radius")
    parser.add_argument(
        "--proj-bound", default="2", type=_integer("--proj-bound", 0),
        help="projection bound for std-connectivity",
    )
    parser.add_argument("--seed-file", default=None, help="file with the payload")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of a generator word")
    p.add_argument("word")

    p = sub.add_parser("parabolic-eq", help="equality of two parabolic subgroups")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("min-std", help="minimal standardizer of a parabolic")
    p.add_argument("parabolic", nargs="?")

    p = sub.add_parser("conj-graph", help="conjugacy of standard parabolics")
    p.add_argument("--query", nargs=2, metavar=("X", "X2"))

    sub.add_parser("enum-max-simplices", help="all maximal standard simplices")

    p = sub.add_parser("canon-std", help="canonical positive standardizer")
    p.add_argument("simplex", nargs="?")

    p = sub.add_parser("std-transversals", help="standard transversal marking")
    p.add_argument("simplex", nargs="?")

    p = sub.add_parser("validate-marking", help="validate and certify a marking")
    p.add_argument("marking", nargs="?")

    p = sub.add_parser("projection", help="projection of one transversal")
    p.add_argument("marking", nargs="?")
    p.add_argument("--index", required=True, type=_integer("--index"))

    p = sub.add_parser("twist", help="twist move")
    p.add_argument("marking", nargs="?")
    p.add_argument("--index", required=True, type=_integer("--index"))
    p.add_argument("--direction", default="1", type=_integer("--direction"), choices=(1, -1))

    p = sub.add_parser("flip", help="all flip moves across an index")
    p.add_argument("marking", nargs="?")
    p.add_argument("--index", required=True, type=_integer("--index"))

    p = sub.add_parser("standardize-marking", help="conjugate to an all-standard marking")
    p.add_argument("marking", nargs="?")

    p = sub.add_parser(
        "stabilizer-probe", help="the stabilizer's Delta powers in the --bound-k window"
    )
    p.add_argument("marking", nargs="?")

    p = sub.add_parser("bfs", help="explore the marking graph")
    p.add_argument("marking", nargs="?")

    sub.add_parser("std-connectivity", help="connectivity of all-standard markings")
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser every run_command call shares, built on the first call.

    Reuse is safe: parse_args keeps all per-call state in the Namespace it
    returns and never changes the parser, a rejected argv raises ParseError,
    help goes to sys.stdout as it is at call time, and the help width is
    computed when help is printed.  build_parser() still returns a fresh
    parser, so a caller that changes its own copy cannot reach this one.
    """
    return build_parser()


def run_command(argv: list[str]) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit:  # --help, after printing its text
            return 0
        try:
            ctx = context(args.type)
        except UnsupportedType as err:
            raise ParseError(f"bad type spec: {err}") from err
        return _dispatch(ctx, args)
    except ArtinMarkError as err:
        json.dump({"error": type(err).__name__, "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(err, ParseError) else 1


def _dispatch(ctx: GarsideContext, args: argparse.Namespace) -> int:
    graph = ctx.graph
    if args.command == "nf":
        element = normalize(ctx, args.word)
        _emit(args, {"normal_form": element.to_text()}, element.to_text())
    elif args.command == "parabolic-eq":
        first = parse_payload(ctx, args.first, "parabolic")
        second = parse_payload(ctx, args.second, "parabolic")
        result = first == second
        _emit(args, {"equal": result}, str(result).lower())
    elif args.command == "min-std":
        parabolic = parse_payload(ctx, _read(args, args.parabolic), "parabolic")
        element, gens = parabolic.canonical()
        payload = {
            "standardizer": element.to_text(),
            "gens": [graph.name(i) for i in sorted(gens)],
        }
        _emit(args, payload, f"{element.to_text()}  ->  {','.join(payload['gens'])}")
    elif args.command == "conj-graph":
        if args.query:
            x, x2 = (_gens(ctx, q) for q in args.query)
            result = standard_conjugate(ctx, x, x2)
            _emit(args, {"conjugate": result}, str(result).lower())
        else:
            payload = {"vertices": 1 << graph.rank, "edges": conjugacy_edge_count(ctx)}
            _emit(args, payload, f"{payload['vertices']} vertices, {payload['edges']} edges")
    elif args.command == "enum-max-simplices":
        simplices = enumerate_maximal_standard(ctx)
        payload = [
            [",".join(graph.name(i) for i in sorted(v.gens)) for v in s.vertices]
            for s in simplices
        ]
        _emit(args, payload, "\n".join("{" + "; ".join(fam) + "}" for fam in payload))
    elif args.command == "canon-std":
        simplex = parse_payload(ctx, _read(args, args.simplex), "simplex")
        ghat, std = simplex.canonical_data()
        payload = {
            "standardizer": ghat.to_text(),
            "subsets": [
                ",".join(graph.name(i) for i in sorted(x)) for x in std.subsets
            ],
        }
        _emit(args, payload, f"{ghat.to_text()}  ->  {payload['subsets']}")
    elif args.command == "std-transversals":
        simplex = parse_payload(ctx, _read(args, args.simplex), "simplex")
        marking = standard_transversals(simplex)
        _emit(args, marking.to_json(), json.dumps(marking.to_json(), sort_keys=True))
    elif args.command == "validate-marking":
        marking = _marking_arg(ctx, args)
        cert = validate_marking(marking)
        payload = {
            "valid": True,
            "levels": [list(layer) for layer in marking.base_simplex().levels.levels],
            "transversals": [
                {
                    "index": i,
                    "twist": t.twist,
                    "subset": [graph.name(s) for s in sorted(t.subset)],
                }
                for i, t in enumerate(cert.transversals)
            ],
        }
        _emit(args, payload, "valid")
    elif args.command == "projection":
        marking = _marking_arg(ctx, args)
        value = projection(marking, args.index)
        _emit(args, {"projection": value}, str(value))
    elif args.command == "twist":
        marking = _marking_arg(ctx, args)
        moved = twist_move(marking, args.index, args.direction)
        _emit(args, moved.to_json(), json.dumps(moved.to_json(), sort_keys=True))
    elif args.command == "flip":
        marking = _marking_arg(ctx, args)
        moves = enumerate_flip_moves(marking, args.index)
        payload = [m.to_json() for m in moves]
        _emit(args, payload, "\n".join(json.dumps(m, sort_keys=True) for m in payload))
    elif args.command == "standardize-marking":
        marking = _marking_arg(ctx, args)
        conj, standard = standardize_marking(marking)
        payload = {"conjugator": conj.to_text(), "marking": standard.to_json()}
        _emit(args, payload, json.dumps(payload, sort_keys=True))
    elif args.command == "stabilizer-probe":
        marking = _marking_arg(ctx, args)
        d, b = marking_stabilizer(marking), args.bound_k
        # the probe's window: Delta^m = Delta^e Delta^j with |e| <= b and
        # Delta^j of atom length jL <= b, so -b <= m <= b + b // L
        top = b + b // ctx.delta_len
        payload = [(ctx.delta**m).to_text() for m in range(-b, top + 1) if m % d == 0]
        _emit(args, payload, "\n".join(payload))
    elif args.command == "bfs":
        marking = _marking_arg(ctx, args)
        ball = bfs(marking, args.radius)
        fmt = "json" if args.format == "json" else "dot"
        sys.stdout.writelines(export_graph(ball, fmt))
    elif args.command == "std-connectivity":
        report = standard_marking_connectivity(ctx, projection_bound=args.proj_bound)
        payload = {
            "type": report.type_name,
            "standard_markings": report.standard_count,
            "nodes": report.node_count,
            "connected": report.connected,
            "diameter": report.diameter,
            "bound": report.bound,
        }
        _emit(
            args,
            payload,
            f"{report.type_name}: {report.standard_count} standard markings, "
            f"connected={report.connected}, diameter={report.diameter} "
            f"(bound {report.bound})",
        )
    else:  # pragma: no cover
        raise UnknownFormat(f"unknown command {args.command}")
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
