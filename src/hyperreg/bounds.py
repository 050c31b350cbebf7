"""Regularity bounds and exact formulas from labeled-hypergraph data.

Every method here is purely combinatorial: none of them consults the
homology oracle, so tightness comparisons against the oracle stay
meaningful.  Each method reports applicability, a value when applicable,
and an optional witness (fill set, matching vertices, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import (
    LabeledHypergraph,
    build_hypergraph,
    dimension,
    has_isolated_open_vertices,
    has_isolated_simple_edges,
    is_saturated,
    neighbors,
    open_vertices,
    simple_edges,
)
from .monomials import MonomialIdeal
from .oracle import MAX_LATTICE_GENERATORS, CapExceededError, _lattice_levels

MATCHING_CANDIDATE_CAP = 20

UPPER_METHODS = ("saturated_formula", "simple_edge_formula", "matching_formula",
                 "taylor_bound", "isolated_open_bound", "fill_bound")
LOWER_METHODS = ("saturated_formula", "simple_edge_formula", "matching_formula",
                 "matching_lower")
EXACT_METHODS = ("saturated_formula", "simple_edge_formula", "matching_formula")
ALL_METHODS = ("saturated_formula", "taylor_bound", "isolated_open_bound",
               "fill_bound", "simple_edge_formula", "matching_lower",
               "matching_formula")


def saturated_regularity(hypergraph: LabeledHypergraph) -> int:
    """Exact regularity |X| - |V| of a saturated hypergraph's ideal.

    The projective dimension is then |V|; see
    :func:`saturated_projective_dimension`.
    """
    if not is_saturated(hypergraph):
        raise ValueError("hypergraph is not saturated")
    return hypergraph.label_count - hypergraph.num_vertices


def saturated_projective_dimension(hypergraph: LabeledHypergraph) -> int:
    if not is_saturated(hypergraph):
        raise ValueError("hypergraph is not saturated")
    return hypergraph.num_vertices


def taylor_regularity_bound(ideal: MonomialIdeal) -> int:
    """Upper bound max over generator subsets F of deg(lcm(F)) - |F|.

    For each lcm only the smallest F matters, so the maximum is taken over
    the lcm lattice with its levels.
    """
    if ideal.num_generators > MAX_LATTICE_GENERATORS:
        raise CapExceededError(f"Taylor bound capped at {MAX_LATTICE_GENERATORS} generators")
    return max(m.bit_count() - level for m, level in _lattice_levels(ideal).items())


def iso_upper_bound(hypergraph: LabeledHypergraph) -> int:
    """Upper bound |X| - |V| when no two open vertices are adjacent."""
    if not has_isolated_open_vertices(hypergraph):
        raise ValueError("hypergraph has adjacent open vertices; use fill_upper_bound")
    return hypergraph.label_count - hypergraph.num_vertices


def min_fill_number(hypergraph: LabeledHypergraph) -> tuple[int, frozenset[int]]:
    """Minimum number of open vertices to close so no two open ones stay adjacent.

    This is a minimum vertex cover of the open-open adjacency graph,
    solved exactly by branch and bound seeded with a greedy cover.
    """
    opens = sorted(open_vertices(hypergraph))
    adjacency = {
        v: set(neighbors(hypergraph, v)) & set(opens) for v in opens}
    cover = _min_vertex_cover(adjacency)
    return len(cover), frozenset(cover)


def _greedy_cover(adjacency: dict[int, set[int]]) -> set[int]:
    adj = {v: set(ns) for v, ns in adjacency.items()}
    cover: set[int] = set()
    while True:
        v = max(sorted(adj), key=lambda u: len(adj[u]), default=None)
        if v is None or not adj[v]:
            return cover
        cover.add(v)
        for u in adj[v]:
            adj[u].discard(v)
        adj[v] = set()


def _matching_lower(adj: dict[int, set[int]]) -> int:
    matched: set[int] = set()
    size = 0
    for v in sorted(adj):
        if v in matched:
            continue
        for u in sorted(adj[v]):
            if u not in matched:
                matched.update((v, u))
                size += 1
                break
    return size


def _min_vertex_cover(adjacency: dict[int, set[int]]) -> set[int]:
    best = _greedy_cover(adjacency)

    def search(adj: dict[int, set[int]], chosen: set[int]) -> None:
        nonlocal best
        adj = {v: set(ns) for v, ns in adj.items() if ns}
        # degree-1 reduction: the neighbor of a pendant vertex is always safe
        while adj:
            pendant = next((v for v in sorted(adj) if len(adj[v]) == 1), None)
            if pendant is None:
                break
            u = next(iter(adj[pendant]))
            chosen = chosen | {u}
            adj = {v: ns - {u} for v, ns in adj.items() if v != u}
            adj = {v: ns for v, ns in adj.items() if ns}
        if not adj:
            if len(chosen) < len(best):
                best = set(chosen)
            return
        if len(chosen) + _matching_lower(adj) >= len(best):
            return
        v = max(sorted(adj), key=lambda u: len(adj[u]))
        taken = {u: ns - {v} for u, ns in adj.items() if u != v}
        search(taken, chosen | {v})
        nbrs = adj[v]
        left = {u: ns - nbrs for u, ns in adj.items() if u != v and u not in nbrs}
        search(left, chosen | nbrs)

    search(adjacency, set())
    return best


def fill_upper_bound(hypergraph: LabeledHypergraph) -> int:
    """Upper bound |X| - |V| + t with t the minimal fill number."""
    t, _ = min_fill_number(hypergraph)
    return hypergraph.label_count - hypergraph.num_vertices + t


def simple_edge_regularity(hypergraph: LabeledHypergraph) -> int:
    """Exact regularity |X| - |V| + sum over simple edges F of (|F| - 1).

    Applies when every open vertex lies in exactly one simple edge.
    """
    if not has_isolated_simple_edges(hypergraph):
        raise ValueError("hypergraph does not have isolated simple edges")
    correction = sum(len(e) - 1 for e in simple_edges(hypergraph))
    return hypergraph.label_count - hypergraph.num_vertices + correction


def matching_lower_bound(
        hypergraph: LabeledHypergraph) -> tuple[int, frozenset[int]] | None:
    """Lower bound |X| - |V| for one-dimensional hypergraphs, with witness.

    Searches for closed vertices that are pairwise non-adjacent, whose
    neighborhoods cover every open vertex, and whose singleton edges each
    carry exactly one label.  Exhaustive (with pruning); returns None when
    no witness exists.
    """
    if dimension(hypergraph) != 1:
        raise ValueError("matching bound needs a one-dimensional hypergraph")
    opens = sorted(open_vertices(hypergraph))
    value = hypergraph.label_count - hypergraph.num_vertices
    if not opens:
        return value, frozenset()
    candidates = sorted(
        v for v in hypergraph.vertices
        if frozenset((v,)) in hypergraph.edge_labels
        and hypergraph.multiplicity(frozenset((v,))) == 1)
    if len(candidates) > MATCHING_CANDIDATE_CAP:
        raise CapExceededError(
            f"matching search capped at {MATCHING_CANDIDATE_CAP} closed vertices")
    nbrs = {v: neighbors(hypergraph, v) for v in set(candidates) | set(opens)}

    def search(uncovered: list[int], chosen: frozenset[int]) -> frozenset[int] | None:
        if not uncovered:
            return chosen
        v = uncovered[0]
        for c in candidates:
            if c in chosen or v not in nbrs[c]:
                continue
            if any(c in nbrs[d] for d in chosen):
                continue
            result = search([u for u in uncovered if u not in nbrs[c]], chosen | {c})
            if result is not None:
                return result
        return None

    witness = search(opens, frozenset())
    if witness is None:
        return None
    return value, witness


def matching_regularity(hypergraph: LabeledHypergraph) -> int | None:
    """Exact regularity |X| - |V| when the matching witness exists and all
    open vertices are isolated; None otherwise."""
    result = matching_lower_bound(hypergraph)
    if result is None or not has_isolated_open_vertices(hypergraph):
        return None
    return result[0]


@dataclass(frozen=True)
class MethodResult:
    method: str
    applicable: bool
    value: int | None = None
    witness: dict | None = None


@dataclass(frozen=True)
class BoundReport:
    """All bound methods evaluated on one ideal, plus the tightest of each kind."""

    label_count: int
    num_vertices: int
    dim: int
    methods: tuple[MethodResult, ...]
    best_upper: tuple[str, int]
    best_lower: tuple[str, int] | None

    def result(self, method: str) -> MethodResult:
        for m in self.methods:
            if m.method == method:
                return m
        raise KeyError(method)

    def to_json_dict(self, ideal: MonomialIdeal) -> dict:
        return {
            "ideal": {
                "vars": list(ideal.alphabet.names),
                "gens": [list(g.support) for g in ideal.generators],
            },
            "hypergraph": {
                "X": self.label_count,
                "V": self.num_vertices,
                "dim": self.dim,
            },
            "methods": [
                {
                    "id": m.method,
                    "applicable": m.applicable,
                    "value": m.value,
                    "witness": m.witness,
                }
                for m in self.methods
            ],
            "best_upper": {"id": self.best_upper[0], "value": self.best_upper[1]},
            "best_lower": (
                None if self.best_lower is None
                else {"id": self.best_lower[0], "value": self.best_lower[1]}),
        }


def best_bounds(ideal: MonomialIdeal) -> BoundReport:
    """Evaluate every applicable method; never consults the homology oracle.

    Ties among equal best values prefer exact formulas over mere bounds,
    then earlier methods in the fixed registry order.
    """
    hypergraph = build_hypergraph(ideal)
    results: dict[str, MethodResult] = {}

    if is_saturated(hypergraph):
        results["saturated_formula"] = MethodResult(
            "saturated_formula", True, saturated_regularity(hypergraph),
            {"projective_dimension": saturated_projective_dimension(hypergraph)})
    else:
        results["saturated_formula"] = MethodResult("saturated_formula", False)

    try:
        results["taylor_bound"] = MethodResult(
            "taylor_bound", True, taylor_regularity_bound(ideal))
    except CapExceededError:
        results["taylor_bound"] = MethodResult("taylor_bound", False)

    if has_isolated_open_vertices(hypergraph):
        results["isolated_open_bound"] = MethodResult(
            "isolated_open_bound", True, iso_upper_bound(hypergraph))
    else:
        results["isolated_open_bound"] = MethodResult("isolated_open_bound", False)

    t, fill_set = min_fill_number(hypergraph)
    results["fill_bound"] = MethodResult(
        "fill_bound", True, hypergraph.label_count - hypergraph.num_vertices + t,
        {"t": t, "fill_set": sorted(fill_set)})

    if has_isolated_simple_edges(hypergraph):
        results["simple_edge_formula"] = MethodResult(
            "simple_edge_formula", True, simple_edge_regularity(hypergraph),
            {"simple_edges": sorted(sorted(e) for e in simple_edges(hypergraph))})
    else:
        results["simple_edge_formula"] = MethodResult("simple_edge_formula", False)

    match = None
    if dimension(hypergraph) == 1:
        try:
            match = matching_lower_bound(hypergraph)
        except CapExceededError:
            pass
    if match is not None:
        value, witness = match
        results["matching_lower"] = MethodResult(
            "matching_lower", True, value, {"closed_vertices": sorted(witness)})
        if has_isolated_open_vertices(hypergraph):
            results["matching_formula"] = MethodResult(
                "matching_formula", True, value, {"closed_vertices": sorted(witness)})
        else:
            results["matching_formula"] = MethodResult("matching_formula", False)
    else:
        results["matching_lower"] = MethodResult("matching_lower", False)
        results["matching_formula"] = MethodResult("matching_formula", False)

    best_upper = min(
        ((m, results[m].value) for m in UPPER_METHODS if results[m].applicable),
        key=lambda mv: (mv[1], UPPER_METHODS.index(mv[0])))
    lower_candidates = [
        (m, results[m].value) for m in LOWER_METHODS if results[m].applicable]
    best_lower = max(
        lower_candidates,
        key=lambda mv: (mv[1], -LOWER_METHODS.index(mv[0]))) if lower_candidates else None

    return BoundReport(
        label_count=hypergraph.label_count,
        num_vertices=hypergraph.num_vertices,
        dim=dimension(hypergraph),
        methods=tuple(results[m] for m in ALL_METHODS),
        best_upper=best_upper,
        best_lower=best_lower,
    )
