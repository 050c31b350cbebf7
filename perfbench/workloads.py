"""Seeded input sets for the four workloads.

Everything here is plain Python and depends only on ``--seed``; hyperreg is
not imported.  Each workload is a list of operations, and each operation is
a JSON-ready dict that ``one_round.py`` runs and checks.  Ideals are carried as
text (what ``parse_ideal`` reads) together with their generators as lists of
variable names, so the checks never need the program's own parsing.

The structured families are the same for every seed; the random ones are
drawn from the seed.  Seeded random rungs are stratified by lcm-lattice
size: ten candidates are drawn per slot, sorted by lattice size, and the
middle one of each consecutive ten is kept.  That keeps the whole range of
shapes while making the work of a set, and its median, depend less on the
seed.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from checks import closed_form_reg, lattice_size

WORKLOADS = ("betti-gf2", "betti-gf3", "bounds-wide", "cli-sweep")


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k:02d}" for k in range(count)]


def _text(gens: list[list[str]]) -> str:
    return "\n".join(" ".join(g) for g in gens) + "\n"


def _antichain(rng: random.Random, num_vars: int, num_gens: int) -> list[int]:
    """Distinct, pairwise incomparable nonempty supports, drawn one at a time.

    A draw such as the full support can leave no room for more generators,
    so after many rejections in a row the draw starts over.
    """
    kept: list[int] = []
    misses = 0
    while len(kept) < num_gens:
        m = rng.randrange(1, 1 << num_vars)
        if all(k & ~m and m & ~k for k in kept):
            kept.append(m)
            misses = 0
        elif misses == 1000:
            kept, misses = [], 0
        else:
            misses += 1
    return kept


def _gens_of(masks: list[int], names: list[str]) -> list[list[str]]:
    return [[names[k] for k in range(len(names)) if m >> k & 1] for m in masks]


def _random_rung(rng: random.Random, num_vars: int, num_gens: int,
                 count: int) -> list[list[list[str]]]:
    names = _names("x", num_vars)
    drawn = [_antichain(rng, num_vars, num_gens) for _ in range(10 * count)]
    drawn.sort(key=lambda masks: (lattice_size(masks), sorted(masks)))
    return [_gens_of(masks, names) for masks in drawn[5::10]]


def path(n: int) -> list[list[str]]:
    v = _names("x", n)
    return [[v[k], v[k + 1]] for k in range(n - 1)]


def cycle(n: int) -> list[list[str]]:
    v = _names("x", n)
    return [sorted((v[k], v[(k + 1) % n])) for k in range(n)]


def disjoint_edges(k: int) -> list[list[str]]:
    return [[f"a{j:02d}", f"b{j:02d}"] for j in range(k)]


def veronese(m: int, d: int) -> list[list[str]]:
    """All square-free monomials of degree d on m variables."""
    return [list(c) for c in itertools.combinations(_names("z", m), d)]


def grid(rows: int, cols: int) -> list[list[str]]:
    """Edge ideal of the rows x cols grid graph."""
    name = {(r, c): f"g{r}{c}" for r in range(rows) for c in range(cols)}
    edges = [[name[r, c], name[r, c + 1]] for r in range(rows) for c in range(cols - 1)]
    edges += [[name[r, c], name[r + 1, c]] for r in range(rows - 1) for c in range(cols)]
    return edges


def _betti_op(gens: list[list[str]], field: int, family: str, n: int = 0) -> dict:
    return {"kind": "betti", "field": field, "family": family, "n": n,
            "text": _text(gens), "gens": gens, "reg": closed_form_reg(family, n)}


def _structured(field: int, paths, cycles, edges, veroneses) -> list[dict]:
    ops = [_betti_op(path(n), field, "path", n) for n in paths]
    ops += [_betti_op(cycle(n), field, "cycle", n) for n in cycles]
    ops += [_betti_op(disjoint_edges(k), field, "edges", k) for k in edges]
    ops += [_betti_op(veronese(m, d), field, "veronese", 100 * m + d) for m, d in veroneses]
    return ops


def _fixed_rung(num_vars: int, num_gens: int, count: int) -> list[list[list[str]]]:
    """Draws from a stream of their own that does not depend on the seed."""
    rng = random.Random(f"fixed {num_vars}/{num_gens}")
    names = _names("x", num_vars)
    return [_gens_of(_antichain(rng, num_vars, num_gens), names) for _ in range(count)]


def betti_gf2(rng: random.Random) -> tuple[list[dict], dict]:
    """Most operations are 14/12 draws, so the median lies well inside them.

    The 18/16 rung is fixed: its costs spread widely and, seeded, they would
    decide the tail of the set.
    """
    ops = []
    for num_vars, num_gens, count in ((10, 8, 10), (12, 10, 10), (14, 12, 60), (16, 14, 20)):
        ops += [_betti_op(g, 2, "random") for g in _random_rung(rng, num_vars, num_gens, count)]
    ops += [_betti_op(g, 2, "random") for g in _fixed_rung(18, 16, 10)]
    ops += _structured(2, (*range(4, 15), 16), range(4, 15), range(1, 11),
                       ((4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3), (5, 4), (6, 4),
                        (6, 5), (7, 6)))
    return ops, _betti_op(grid(3, 4), 2, "grid")


def betti_gf3(rng: random.Random) -> tuple[list[dict], dict]:
    """Over GF(3) the cost of one random ideal ranges over two orders of
    magnitude at 14/12 and more at 16/14, so those rungs are fixed draws that
    do not depend on the seed; the seed draws the 12/10 rung, whose costs
    are narrow."""
    ops = [_betti_op(g, 3, "random") for g in _random_rung(rng, 12, 10, 60)]
    ops += [_betti_op(g, 3, "random") for g in _fixed_rung(14, 12, 20) + _fixed_rung(16, 14, 2)]
    ops += _structured(3, range(4, 12), range(9, 13), range(1, 9),
                       ((4, 2), (5, 2), (6, 2), (5, 3), (6, 4)))
    return ops, _betti_op(grid(3, 3), 3, "grid")


def _one_dimensional(rng: random.Random, closed: int, opens: int, cc_edges: int) -> list[list[str]]:
    """Closed vertices with private labels; each open vertex joins two closed ones.

    Every variable lies in at most two generators, so the hypergraph is
    one-dimensional, and at most 20 vertices are closed, which keeps the
    matching search under its candidate cap.
    """
    edges: set[tuple[int, int]] = set()
    for o in range(closed, closed + opens):
        for c in rng.sample(range(closed), 2):
            edges.add((c, o))
    while sum(1 for _, b in edges if b < closed) < cc_edges:
        a, b = sorted(rng.sample(range(closed), 2))
        edges.add((a, b))
    gens: list[list[str]] = [[] for _ in range(closed + opens)]
    for k, (a, b) in enumerate(sorted(edges)):
        gens[a].append(f"e{k:03d}")
        gens[b].append(f"e{k:03d}")
    for v in range(closed):
        gens[v].append(f"p{v:03d}")
    return [sorted(g) for g in gens]


def _bounds_op(gens: list[list[str]], family: str) -> dict:
    return {"kind": "bounds", "family": family, "text": _text(gens), "gens": gens}


def bounds_wide(rng: random.Random) -> tuple[list[dict], dict]:
    names = _names("x", 26)
    ops = [_bounds_op(_gens_of(_antichain(rng, 26, m), names), f"dense{m}")
           for m in (20, 40, *[60] * 5, 80, 100, 120, 140, 160) for _ in range(4)]
    for closed, opens, cc in ((20, 10, 10), (20, 20, 15), (20, 30, 20)) * 6:
        ops.append(_bounds_op(_one_dimensional(rng, closed, opens, cc), "onedim"))
    warm = random.Random("bounds-wide warm-up")
    return ops, _bounds_op(_gens_of(_antichain(warm, 26, 100), names), "dense100")


def _cli_op(argv: list[str], check: str, gens=None) -> dict:
    return {"kind": "cli", "argv": argv, "check": check, "gens": gens}


def cli_sweep(rng: random.Random, seed: int, files: Path) -> tuple[list[dict], dict]:
    """``random`` sweeps, ``analyze`` on small files, and two ``verify-paper``.

    The second ``verify-paper`` finds every corpus table in the
    ``betti_table`` cache that the first one filled.  Text and JSON analyses
    read different files, so no other operation repeats a cached ideal.
    """
    ops = []
    sweeps = (("12", "8", "20", "2", False), ("14", "10", "15", "2", True),
              ("12", "8", "15", "3", True), ("13", "9", "10", "3", False))
    for k in range(10):
        for num_vars, num_gens, count, field, as_json in sweeps:
            argv = ["random", "--vars", num_vars, "--gens", num_gens, "--count", count,
                    "--seed", str(seed * 100 + k), "--field", field]
            ops.append(_cli_op(argv + ["--json"] if as_json else argv,
                               "random-json" if as_json else "random-text"))
    files.mkdir(parents=True, exist_ok=True)
    for k in range(60):
        num_vars, num_gens = rng.choice(((8, 5), (9, 6), (10, 7), (11, 8), (12, 8)))
        gens = _gens_of(_antichain(rng, num_vars, num_gens), _names("x", num_vars))
        path_ = files / f"ideal{k:02d}.txt"
        path_.write_text(_text(gens), encoding="utf-8")
        argv = ["analyze", str(path_), "--field", str(2 + k // 2 % 2)]
        if k < 24:
            argv.append("--no-oracle")
        if k % 2 == 0:
            ops.append(_cli_op(argv + ["--json"], "analyze-json", gens))
        else:
            ops.append(_cli_op(argv, "analyze-text", gens))
    ops.append(_cli_op(["verify-paper"], "verify-text"))
    ops.append(_cli_op(["verify-paper", "--json"], "verify-json"))
    return ops, _cli_op(["random", "--vars", "11", "--gens", "7", "--count", "10",
                         "--seed", "0"], "random-text")


def build(workload: str, seed: int, files: Path) -> tuple[list[dict], dict]:
    """The timed operations of one workload, shuffled, and its warm-up.

    The machine's speed changes from one second to the next, so operations
    of one kind are spread across the round rather than run back to back;
    otherwise the median or the tail would reflect a single short window.
    The permutation does not depend on the seed, so every seed puts the same
    kinds of operation in the same places and the heap, hence the peak RSS,
    evolves alike.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "betti-gf2":
        ops, warm = betti_gf2(rng)
    elif workload == "betti-gf3":
        ops, warm = betti_gf3(rng)
    elif workload == "bounds-wide":
        ops, warm = bounds_wide(rng)
    elif workload == "cli-sweep":
        ops, warm = cli_sweep(rng, seed, files)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload} order").shuffle(ops)
    verify = [k for k, op in enumerate(ops) if op.get("check", "").startswith("verify")]
    if verify and ops[verify[0]]["check"] == "verify-json":
        ops[verify[0]], ops[verify[1]] = ops[verify[1]], ops[verify[0]]
    return ops, warm
