"""One round of a workload in a fresh process: set up, time every operation, check.

Started by ``run.py``; prints one JSON object as its last line of output.  Set-up
is the time to import hyperreg, parse every input with ``parse_ideal`` and
run the warm-up operation.  The inputs file is read before that clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(hyperreg, op: dict, ideal):
    if op["kind"] == "betti":
        return hyperreg.betti_table(ideal, hyperreg.GF2 if op["field"] == 2 else hyperreg.GF3)
    if op["kind"] == "bounds":
        return hyperreg.best_bounds(ideal)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hyperreg.cli.main(op["argv"])
    return code, out.getvalue()


def _failed(op: dict, result) -> bool:
    return op["kind"] == "cli" and result[0] != 0


def _digest(op: dict, ideal, result) -> str:
    if op["kind"] == "betti":
        text = json.dumps(result.to_json_dict(), sort_keys=True)
    elif op["kind"] == "bounds":
        text = json.dumps(result.to_json_dict(ideal), sort_keys=True)
    else:
        text = f"{result[0]}\n{result[1]}"
    return hashlib.sha256(text.encode()).hexdigest()


def _same_gens(a: list[list[str]], b: list[list[str]]) -> bool:
    return sorted(map(sorted, a)) == sorted(map(sorted, b))


def _variables(gens: list[list[str]]) -> list[str]:
    return sorted({v for g in gens for v in g})


def _table_entries(table_json: dict, names: list[str]) -> dict[tuple[int, int], int]:
    index = {name: k for k, name in enumerate(names)}
    return {(e["i"], sum(1 << index[v] for v in e["degree"])): e["rank"]
            for e in table_json["entries"]}


def _check_table(table_json: dict, gens: list[list[str]], reg: int | None) -> list[str]:
    names = _variables(gens)
    entries = _table_entries(table_json, names)
    problems = checks.check_betti(checks.masks_of(gens, names), entries)
    if table_json["reg"] != checks.regularity(entries):
        problems.append("reported regularity is not read off the table")
    if reg is not None and table_json["reg"] != reg:
        problems.append(f"regularity {table_json['reg']} differs from the closed form {reg}")
    return problems


def _check_report(report: dict, gens: list[list[str]], reg: int | None) -> list[str]:
    if not _same_gens(report["ideal"]["gens"], gens):
        return ["generators differ from the input"]
    masks = checks.masks_of(report["ideal"]["gens"], report["ideal"]["vars"])
    return checks.check_bounds(masks, report) + checks.check_sandwich(report, reg)


_INSTANCE = re.compile(r"instance \d+: gens=\(.*\) X=\d+ V=\d+ best_upper=\w+:(-?\d+)"
                       r" reg=(\d+) pd=\d+$")


def _check_cli(op: dict, stdout: str) -> list[str]:
    check = op["check"]
    lines = stdout.splitlines()
    if check == "random-json":
        records = [json.loads(line) for line in lines]
        count = int(op["argv"][op["argv"].index("--count") + 1])
        if len(records) != count + 1 or "aggregate" not in records[-1]:
            return ["sweep does not hold one record per instance and an aggregate"]
        problems = []
        for r in records[:-1]:
            low = r["best_lower"]["value"] if r["best_lower"] else None
            if (r["X"], r["V"]) != (len(_variables(r["gens"])), len(r["gens"])):
                problems.append(f"instance {r['instance']}: |X| or |V| is wrong")
            if r["reg"] > r["best_upper"]["value"] or (low is not None and low > r["reg"]):
                problems.append(f"instance {r['instance']}: regularity outside the bounds")
        return problems
    if check == "random-text":
        count = int(op["argv"][op["argv"].index("--count") + 1])
        found = [_INSTANCE.match(line) for line in lines[:count]]
        if not all(found) or lines[count] != f"aggregate over {count} instances:":
            return ["sweep text does not hold one line per instance and an aggregate"]
        if any(int(m.group(2)) > int(m.group(1)) for m in found):
            return ["a regularity exceeds its best upper bound"]
        return []
    oracle = "--no-oracle" not in op["argv"]
    if check == "analyze-json":
        doc = json.loads(stdout)
        if not oracle:
            return _check_report(doc, op["gens"], None)
        return (_check_report(doc, op["gens"], doc["oracle"]["reg"])
                + _check_table(doc["oracle"], op["gens"], None))
    if check == "analyze-text":
        upper = re.search(r"^best upper: \w+ = (-?\d+)$", stdout, re.M)
        lower = re.search(r"^best lower: (?:\w+ = (-?\d+)|none)$", stdout, re.M)
        reg = re.search(r"^oracle GF\(\d+\): reg=(\d+) ", stdout, re.M)
        if not (upper and lower) or bool(reg) != oracle:
            return ["analysis text lacks the bounds or the oracle line"]
        low = int(lower.group(1)) if lower.group(1) else None
        top = int(reg.group(1)) if reg else int(upper.group(1))
        if top > int(upper.group(1)) or (low is not None and low > top):
            return ["regularity outside the bounds"]
        return []
    if check == "verify-text":
        if not re.fullmatch(r"\d+ checks: \d+ ok, 0 failed, \d+ flagged .*", lines[-1]):
            return ["verify-paper reports failures"]
        return []
    if check == "verify-json":
        return [] if json.loads(stdout)["failures"] == 0 else ["verify-paper reports failures"]
    raise ValueError(f"unknown check {check!r}")


def check(hyperreg, op: dict, ideal, result) -> list[str]:
    """Problems with one operation's output, found by the benchmark's own code."""
    if op["kind"] == "betti":
        problems = [] if _same_gens([list(g.support) for g in ideal.generators], op["gens"]) \
            else ["generators differ from the input"]
        problems += _check_table(result.to_json_dict(), op["gens"], op["reg"])
        return problems + _check_report(
            hyperreg.best_bounds(ideal).to_json_dict(ideal), op["gens"], result.regularity)
    if op["kind"] == "bounds":
        return _check_report(result.to_json_dict(ideal), op["gens"], None)
    return _check_cli(op, result[1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spans")
    args = parser.parse_args()
    spec = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    ops, warm = spec["ops"], spec["warm_up"]
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import hyperreg
    if warm["kind"] == "cli":
        import hyperreg.cli
    ideals = [hyperreg.parse_ideal(op["text"]) if "text" in op else None for op in ops]
    warm_result = _run(hyperreg, warm, hyperreg.parse_ideal(warm["text"]) if "text" in warm else None)
    setup = time.perf_counter() - start
    if not Path(hyperreg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"hyperreg was imported from {hyperreg.__file__}, not from src/", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install()
    times: list[float | None] = []
    results = []
    for op, ideal in zip(ops, ideals):
        t = time.perf_counter()
        try:
            with tracer.span("op") if args.trace else contextlib.nullcontext():
                result = _run(hyperreg, op, ideal)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            result = None
        elapsed = time.perf_counter() - t
        lattice = getattr(hyperreg, "lcm_lattice", None)
        if args.trace and op["kind"] == "betti" and lattice is not None:
            with tracer.span("lattice"):
                lattice(ideal)
        ok = result is not None and not _failed(op, result)
        times.append(elapsed if ok else None)
        results.append(result if ok else None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    if _failed(warm, warm_result):
        problems.append("warm-up operation failed")
    digests = []
    for k, (op, ideal, result) in enumerate(zip(ops, ideals, results)):
        if result is None:
            digests.append(None)
            continue
        digests.append(_digest(op, ideal, result))
        if args.check:
            problems += [f"operation {k}: {p}" for p in check(hyperreg, op, ideal, result)]

    layers = tracer.summary() if args.trace else {}
    if args.spans:
        Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps({"setup_s": setup, "rss_mb": rss_mb, "times": times, "digests": digests,
                      "problems": problems, "layers": layers, "absent": tracer.absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
