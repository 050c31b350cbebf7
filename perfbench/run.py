"""Benchmark of hyperreg: one workload per run, each round in a fresh process.

    python3 perfbench/run.py --workload betti-gf3 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; hyperreg is imported from ``src/`` there.
The inputs of a run come from ``--seed`` alone.  A run repeats whole rounds
over the same inputs, at least five, until ``--seconds`` have passed; every
round is a fresh single-threaded process that sets up, times each operation
once and reports.  The first round checks every output with the benchmark's
own code, and every later round must produce the same outputs.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced rounds and reports per-layer self times,
call counts and the tracing overhead; the spans of each traced round are
written under ``.perfbench_out/spans``.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, build  # noqa: E402

TIME_LIMIT_S = 165
MIN_ROUNDS = 5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


class RoundError(RuntimeError):
    pass


def _round(inputs: Path, trace: int, check: int, spans: Path | None, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_round.py"), "--inputs", str(inputs),
           "--trace", str(trace), "--check", str(check)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same set and dict orders every round
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RoundError("a round did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise RoundError(f"a round exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return sorted(samples)[len(samples) - 11]


def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Per operation, the mean time over rounds; then the set's figures from those.

    The machine switches between speeds that differ by up to two fifths and
    stays in one for tens of seconds to minutes.  The mean over a run weighs
    each speed by the time spent in it, where a median takes whichever held
    for most of the run; over 50-second windows the mean spread about half
    as widely from window to window.
    """
    ok = [k for k in range(len(rounds[0]["times"]))
          if all(r["times"][k] is not None for r in rounds)]
    per_op = [statistics.fmean(r["times"][k] for r in rounds) for k in ok]
    if len(per_op) < 40:
        raise RoundError(f"only {len(per_op)} operations succeeded; op_tail_ms needs 40")
    print(f"op_tail_ms is p{100 * (len(per_op) - 10) / len(per_op):.1f} "
          f"of {len(per_op)} operations", file=sys.stderr)
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_tail_ms": (_tail(per_op) * 1000, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Median over traced rounds of each layer's total per round, and the overhead.

    Untraced and traced rounds alternate, so the overhead is the median over
    adjacent pairs of their time ratio: the machine's speed changes less
    within a pair than over the run.
    """
    out = {name: (statistics.median(r["layers"].get(name, 0) for r in traced),
                  "count" if name.endswith(".calls") else "ms") for name in PER_LAYER}

    def busy(r: dict) -> float:
        return sum(t for t in r["times"] if t is not None)
    ratio = statistics.median(busy(t) / busy(u) for u, t in zip(untraced, traced))
    out["trace.overhead_pct"] = ((ratio - 1) * 100, "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hyperreg" / "__init__.py").is_file():
        print(f"no hyperreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans_dir = OUT / "spans"
    try:
        work.mkdir(parents=True, exist_ok=True)
        ops, warm = build(args.workload, args.seed, work)
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps({"ops": ops, "warm_up": warm}), encoding="utf-8")
        if args.trace:
            spans_dir.mkdir(parents=True, exist_ok=True)
        untraced: list[dict] = []
        traced: list[dict] = []
        clock = time.monotonic()
        last = 0.0  # the length of the latest round; the run ends nearest to --seconds
        while (len(untraced) + len(traced) < MIN_ROUNDS + args.trace
               or (args.trace and min(len(untraced), len(traced)) < 2)
               or time.monotonic() - clock + last / 2 < args.seconds):
            trace = args.trace and len(traced) < len(untraced)
            spans = None
            if trace:
                spans = spans_dir / f"{args.workload}-seed{args.seed}-round{len(traced)}.json"
            begun = time.monotonic()
            result = _round(inputs, int(trace), int(not untraced), spans, deadline)
            last = time.monotonic() - begun
            (traced if trace else untraced).append(result)
        print(f"{len(untraced) + len(traced)} rounds in {time.monotonic() - clock:.1f} s, "
              f"inputs made in {clock - start:.1f} s", file=sys.stderr)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = untraced + traced
    problems = untraced[0]["problems"]
    if any(r["digests"] != untraced[0]["digests"] for r in rounds):
        problems.append("a later round produced other outputs than the checked one")
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    absent = sorted({name for r in traced for name in r["absent"]})
    if absent:
        print(f"absent from this version: {', '.join(absent)}", file=sys.stderr)
    try:
        metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        # figures that do not repeat within a bound are printed for reference only
        for name in [n for n in metrics if n not in END_TO_END]:
            value, unit = metrics.pop(name)
            print(f"reference: {name} = {value} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r["times"]) for r in rounds),
        "failed": sum(t is None for r in rounds for t in r["times"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
