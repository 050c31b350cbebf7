"""Independent correctness checks for the benchmark's operations.

Nothing here imports hyperreg.  Every checker works on plain data: generator
supports as bit masks over the benchmark's own variable numbering, Betti
entries as ``{(i, mask): rank}``, and bound reports in the JSON form that
``BoundReport.to_json_dict`` and ``hyperreg analyze --json`` print.  Each
checker returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

EXACT_METHODS = ("saturated_formula", "simple_edge_formula", "matching_formula")


def masks_of(gens: list[list[str]], names: list[str]) -> list[int]:
    """Generator supports as masks, bit k standing for ``names[k]``."""
    index = {name: k for k, name in enumerate(names)}
    return [sum(1 << index[v] for v in gen) for gen in gens]


def signed_lcm_closure(gens: list[int]) -> dict[int, int]:
    """Coefficients of sum over generator subsets F of (-1)^|F| t^lcm(F).

    Built one generator at a time, so the cost is mu times the lattice size
    rather than 2^mu; degrees whose coefficient cancels to 0 are dropped.
    """
    coeff = {0: 1}
    for g in gens:
        grown = dict(coeff)
        for m, c in coeff.items():
            grown[m | g] = grown.get(m | g, 0) - c
        coeff = grown
    return {m: c for m, c in coeff.items() if c}


def min_subset_closure(gens: list[int]) -> dict[int, int]:
    """Every lcm of a nonempty generator subset, with the least subset size."""
    best: dict[int, int] = {}
    for g in gens:
        grown = dict(best)
        for m, size in best.items():
            if grown.get(m | g, size + 2) > size + 1:
                grown[m | g] = size + 1
        grown[g] = 1
        best = grown
    return best


def lattice_size(gens: list[int]) -> int:
    return len(min_subset_closure(gens))


def check_betti(gens: list[int], entries: dict[tuple[int, int], int]) -> list[str]:
    """Euler characteristic at every multidegree, beta_0 and beta_1."""
    problems = []
    if entries.get((0, 0)) != 1:
        problems.append("beta_{0,1} is not 1")
    if any(rank <= 0 for rank in entries.values()):
        problems.append("a nonpositive rank is stored")
    if any(i == 0 and b for i, b in entries):
        problems.append("beta_0 outside degree 1")
    first = {b: r for (i, b), r in entries.items() if i == 1}
    if first != {g: 1 for g in gens}:
        problems.append("beta_1 entries are not exactly the generators")
    euler: dict[int, int] = {}
    for (i, b), rank in entries.items():
        euler[b] = euler.get(b, 0) + (-1) ** i * rank
    euler = {b: c for b, c in euler.items() if c}
    if euler != signed_lcm_closure(gens):
        problems.append("alternating sum of Betti numbers differs from the lcm closure")
    return problems


def regularity(entries: dict[tuple[int, int], int]) -> int:
    return max(b.bit_count() - i for i, b in entries)


def closed_form_reg(family: str, n: int) -> int | None:
    """reg(R/I) for families with a known formula; None for the others.

    path and cycle are the edge ideals of P_n and C_n on n vertices, edges
    is n disjoint edges, and veronese encodes all square-free monomials of
    degree d on m variables as n = 100 * m + d.
    """
    if family == "path":
        return (n + 1) // 3
    if family == "cycle":
        return n // 3 + (1 if n % 3 == 2 else 0)
    if family == "edges":
        return n
    if family == "veronese":
        return n % 100 - 1
    return None


def _adjacency(gens: list[int]) -> tuple[list[int], list[bool]]:
    """Neighbour masks over vertices 1..mu (bit v-1) and which are closed."""
    mu = len(gens)
    adj = [0] * mu
    closed = [False] * mu
    for v, g in enumerate(gens):
        others = 0
        for w, h in enumerate(gens):
            if w != v:
                others |= h
                if g & h:
                    adj[v] |= 1 << w
        closed[v] = bool(g & ~others)
    return adj, closed


def _methods(report: dict) -> dict[str, dict]:
    return {m["id"]: m for m in report["methods"]}


def check_sandwich(report: dict, reg: int | None) -> list[str]:
    """Uppers above lowers, the best values are the extremes, exact ones agree."""
    problems = []
    methods = _methods(report)
    uppers = [m["value"] for i, m in methods.items()
              if m["applicable"] and i in ("saturated_formula", "simple_edge_formula",
                                           "matching_formula", "taylor_bound",
                                           "isolated_open_bound", "fill_bound")]
    lowers = [m["value"] for i, m in methods.items()
              if m["applicable"] and i in EXACT_METHODS + ("matching_lower",)]
    best_upper = report["best_upper"]["value"]
    best_lower = None if report["best_lower"] is None else report["best_lower"]["value"]
    if not uppers or best_upper != min(uppers):
        problems.append("best_upper is not the least applicable upper bound")
    if (best_lower is None) != (not lowers) or (lowers and best_lower != max(lowers)):
        problems.append("best_lower is not the greatest applicable lower bound")
    if best_lower is not None and best_lower > best_upper:
        problems.append("best_lower exceeds best_upper")
    exact = {methods[i]["value"] for i in EXACT_METHODS
             if i in methods and methods[i]["applicable"]}
    if len(exact) > 1:
        problems.append("exact formulas disagree")
    if reg is not None:
        if not (best_lower is None or best_lower <= reg) or reg > best_upper:
            problems.append("regularity outside [best_lower, best_upper]")
        if exact and exact != {reg}:
            problems.append("an exact formula differs from the regularity")
    return problems


def check_fill(gens: list[int], report: dict) -> list[str]:
    """The fill witness is a vertex cover of the open-open graph of size t."""
    adj, closed = _adjacency(gens)
    fill = _methods(report)["fill_bound"]
    x = 0
    for g in gens:
        x |= g
    label_count, vertices = x.bit_count(), len(gens)
    t = fill["witness"]["t"]
    cover = {v - 1 for v in fill["witness"]["fill_set"]}
    problems = []
    if not fill["applicable"] or fill["value"] != label_count - vertices + t:
        problems.append("fill_bound is not |X| - |V| + t")
    if len(cover) != t or any(v < 0 or v >= vertices or closed[v] for v in cover):
        problems.append("fill set is not t open vertices")
    opens = [v for v in range(vertices) if not closed[v]]
    for v in opens:
        for w in opens:
            if v < w and adj[v] >> w & 1 and v not in cover and w not in cover:
                problems.append(f"open edge {v + 1}-{w + 1} is not covered")
                return problems
    matched = set()
    for v in opens:
        for w in opens:
            if v not in matched and w not in matched and v != w and adj[v] >> w & 1:
                matched.update((v, w))
    if t < len(matched) // 2:
        problems.append("t is below a matching lower bound on the cover size")
    return problems


def check_matching(gens: list[int], report: dict) -> list[str]:
    """Closed, pairwise non-adjacent witness vertices covering every open one."""
    match = _methods(report)["matching_lower"]
    if not match["applicable"]:
        return []
    adj, closed = _adjacency(gens)
    x = 0
    for g in gens:
        x |= g
    witness = [v - 1 for v in match["witness"]["closed_vertices"]]
    problems = []
    if match["value"] != x.bit_count() - len(gens):
        problems.append("matching_lower is not |X| - |V|")
    if any(v < 0 or v >= len(gens) or not closed[v] for v in witness):
        problems.append("matching witness holds a vertex that is not closed")
        return problems
    if any(adj[v] >> w & 1 for v in witness for w in witness):
        problems.append("matching witness holds two adjacent vertices")
    covered = 0
    for v in witness:
        covered |= adj[v]
    if any(not closed[v] and not covered >> v & 1 for v in range(len(gens))):
        problems.append("matching witness leaves an open vertex uncovered")
    return problems


def check_bounds(gens: list[int], report: dict) -> list[str]:
    """All checks on one bound report that need no regularity."""
    x = 0
    for g in gens:
        x |= g
    problems = []
    if (report["hypergraph"]["X"], report["hypergraph"]["V"]) != (x.bit_count(), len(gens)):
        problems.append("|X| or |V| differs from the generator masks")
    taylor = _methods(report)["taylor_bound"]
    if taylor["applicable"]:
        expected = max(m.bit_count() - s for m, s in min_subset_closure(gens).items())
        if taylor["value"] != expected:
            problems.append("taylor_bound differs from the lcm closure")
    return problems + check_fill(gens, report) + check_matching(gens, report)
