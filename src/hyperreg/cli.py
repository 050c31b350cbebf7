"""Command-line interface: analyze ideals, verify the built-in corpus,
sweep random instances, render hypergraphs.

Exit codes: 0 success, 1 usage or parse error, 2 verification mismatch,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .bounds import LOWER_METHODS, UPPER_METHODS, BoundReport, best_bounds
from .corpus import CORPUS, verify_corpus
from .hypergraph import build_hypergraph, is_saturated, render, to_json_dict
from .monomials import IdealFormatError, MonomialIdeal, UnitIdealError, parse_ideal
from .oracle import BettiTable, CapExceededError, FieldSpec, _extremes, betti_table
from .randgen import max_antichain, random_ideal

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

ORACLE_MAX_VARS = 14
ORACLE_MAX_GENS = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hyperreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one ideal file")
    p_analyze.add_argument("path")

    p_verify = sub.add_parser("verify-paper", help="verify the built-in corpus")
    p_verify.add_argument("--json", action="store_true")

    p_random = sub.add_parser("random", help="sweep seeded random ideals")
    for name in ("--vars", "--gens", "--count", "--seed"):
        p_random.add_argument(name, type=int, required=True)
    for p in (p_analyze, p_random):
        p.add_argument("--field", type=int, default=2, metavar="P")
        p.add_argument("--no-oracle", action="store_true")
        p.add_argument("--json", action="store_true")

    p_render = sub.add_parser("render", help="render a hypergraph to DOT or TikZ")
    p_render.add_argument("path")
    p_render.add_argument("--format", required=True, choices=("dot", "tikz"))
    p_render.add_argument("--out")

    return parser


_PARSER = _build_parser()


def _load_ideal(path: str) -> MonomialIdeal:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise IdealFormatError(f"cannot read {path}: {exc}") from exc
    return parse_ideal(text)


def _slacks(report: BoundReport, reg: int) -> dict[str, int]:
    """Each applicable bound's distance from reg; exact formulas count as upper."""
    return {m.method: m.value - reg if m.method in UPPER_METHODS else reg - m.value
            for m in report.methods
            if m.applicable and (m.method in UPPER_METHODS or m.method in LOWER_METHODS)}


def _tightness(report: BoundReport, reg: int) -> dict[str, str]:
    return {method: "tight" if slack == 0 else f"slack {slack}"
            for method, slack in _slacks(report, reg).items()}


def _report_text(ideal: MonomialIdeal, report: BoundReport,
                 table: BettiTable | None) -> str:
    hypergraph = report.hypergraph
    lines = [
        f"ideal: {ideal}",
        f"alphabet: {' '.join(ideal.alphabet.names)}",
        f"hypergraph: |X|={report.label_count} |V|={report.num_vertices} "
        f"dim={report.dim} saturated={'yes' if is_saturated(hypergraph) else 'no'}",
        "edges:",
    ]
    lines += [f"  {{{','.join(map(str, sorted(e)))}}} labels={','.join(names)}"
              for e, names in hypergraph.edge_labels.items()]
    lines.append("bounds:")
    for m in report.methods:
        if m.applicable:
            extra = f" witness={json.dumps(m.witness, sort_keys=True)}" if m.witness else ""
            lines.append(f"  {m.method}: {m.value}{extra}")
        else:
            lines.append(f"  {m.method}: not applicable")
    lines.append(f"best upper: {report.best_upper[0]} = {report.best_upper[1]}")
    lines.append("best lower: " + (
        f"{report.best_lower[0]} = {report.best_lower[1]}" if report.best_lower else "none"))
    if table is not None:
        lines.append(
            f"oracle GF({table.field.characteristic}): reg={table.regularity} "
            f"pd={table.projective_dimension}")
        lines.append(table.render_text().rstrip("\n"))
        lines.append("tightness:")
        for method, verdict in _tightness(report, table.regularity).items():
            lines.append(f"  {method}: {verdict}")
    return "\n".join(lines) + "\n"


def _report_json(ideal: MonomialIdeal, report: BoundReport,
                 table: BettiTable | None) -> dict:
    doc = report.to_json_dict(ideal)
    doc["hypergraph_detail"] = to_json_dict(report.hypergraph)
    if table is not None:
        doc["oracle"] = table.to_json_dict()
        doc["tightness"] = _tightness(report, table.regularity)
    return doc


def cmd_analyze(args) -> int:
    try:
        ideal = _load_ideal(args.path)
        field = FieldSpec(args.field)
    except (IdealFormatError, UnitIdealError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = best_bounds(ideal)
    table = None
    if not args.no_oracle:
        try:
            table = betti_table(ideal, field)
        except CapExceededError as exc:
            print(f"warning: oracle skipped: {exc}", file=sys.stderr)
    if args.json:
        print(json.dumps(_report_json(ideal, report, table), indent=2, sort_keys=True))
    else:
        print(_report_text(ideal, report, table), end="")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    report = verify_corpus(CORPUS)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.to_text(), end="")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_random(args) -> int:
    try:
        field = FieldSpec(args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.vars < 1 or args.gens < 1 or args.count < 1:
        print("error: --vars, --gens and --count must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.gens > max_antichain(args.vars):
        print(f"error: {args.gens} generators exceed the maximal antichain size "
              f"{max_antichain(args.vars)} on {args.vars} variables", file=sys.stderr)
        return EXIT_USAGE
    use_oracle = not args.no_oracle
    if use_oracle and (args.vars > ORACLE_MAX_VARS or args.gens > ORACLE_MAX_GENS):
        print(f"error: oracle sweeps are capped at {ORACLE_MAX_VARS} variables and "
              f"{ORACLE_MAX_GENS} generators; pass --no-oracle", file=sys.stderr)
        return EXIT_CAP

    rng = random.Random(args.seed)
    methods = UPPER_METHODS + ("matching_lower",)
    applicable = {m: 0 for m in methods}
    tight = {m: 0 for m in methods}
    slack_sum = {m: 0 for m in methods}
    for k in range(args.count):
        try:
            ideal = random_ideal(rng, args.vars, args.gens)
        except RuntimeError as exc:  # rejection sampling hit its attempt cap
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAP
        report = best_bounds(ideal)
        gens = [ideal.alphabet.names_of(m) for m in ideal.generator_masks]
        (upper, value), lower = report.best_upper, report.best_lower
        record = {"instance": k, "gens": gens, "X": report.label_count,
                  "V": report.num_vertices, "dim": report.dim,
                  "best_upper": {"id": upper, "value": value},
                  "best_lower": lower and {"id": lower[0], "value": lower[1]}}
        if use_oracle:
            reg, pd = _extremes(ideal, field)
            record["reg"], record["pd"] = reg, pd
            record["tightness"] = _tightness(report, reg)
            for method, slack in _slacks(report, reg).items():
                applicable[method] += 1
                slack_sum[method] += slack
                tight[method] += (slack == 0)
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            # single letters are glued; longer names need a separator to read back
            sep = "*" if any(len(name) > 1 for name in ideal.alphabet.names) else ""
            line = (f"instance {k}: gens=({','.join(map(sep.join, gens))}) "
                    f"X={record['X']} V={record['V']} best_upper={upper}:{value}")
            if use_oracle:
                line += f" reg={record['reg']} pd={record['pd']}"
            print(line)
    if use_oracle:
        if args.json:
            print(json.dumps({
                "aggregate": {
                    m: {"applicable": applicable[m], "tight": tight[m],
                        "total_slack": slack_sum[m]}
                    for m in methods}}, sort_keys=True))
        else:
            print(f"aggregate over {args.count} instances:")
            for m in methods:
                print(f"  {m}: applicable={applicable[m]} tight={tight[m]} "
                      f"total_slack={slack_sum[m]}")
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        ideal = _load_ideal(args.path)
        text = render(build_hypergraph(ideal), args.format)
    except (IdealFormatError, UnitIdealError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(text, end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "verify-paper": cmd_verify_paper,
        "random": cmd_random,
        "render": cmd_render,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
