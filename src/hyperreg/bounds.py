"""Regularity bounds and exact formulas from labeled-hypergraph data.

Every method here is combinatorial: none reads a Betti table or the
oracle's lcm lattice, so tightness comparisons against the oracle stay
meaningful.  Each method reports applicability, a value when applicable,
and an optional witness (fill set, matching vertices, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import (
    LabeledHypergraph,
    _each_open_in_one,
    _simple_masks,
    build_hypergraph,
    dimension,
    has_isolated_open_vertices,
    has_isolated_simple_edges,
    is_saturated,
)
from .monomials import CapExceededError, MonomialIdeal, _bits

MATCHING_CANDIDATE_CAP = 20
TAYLOR_BOUND_GENERATORS = 20

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
    """Upper bound max over generator subsets F of deg(lcm(F)) - |F|, read
    off the hypergraph by :func:`_taylor_bound`."""
    hypergraph = build_hypergraph(ideal)
    return _taylor_bound(hypergraph, _simple_masks(hypergraph))


def _taylor_bound(hypergraph: LabeledHypergraph, simples: list[int]) -> int:
    """The Taylor bound from the hypergraph and its simple edges ``simples``.

    A generator that brings a variable lcm(F) lacks raises its degree by at
    least the 1 it adds to |F|, so adding one for each missing variable
    never lowers deg(lcm(F)) - |F|: the maximum sits at the lcm of all the
    generators, of degree |X|, reached by the fewest generators, tau(H),
    the fewest vertices meeting every edge.  A vertex set meets every edge
    exactly when it meets the minimal ones: the singletons of the closed
    vertices, which every such set takes, and the simple edges, which hold
    no closed vertex.  So the bound is |X| - #closed - tau(S).

    tau(S) is a set cover of S's edges by each open vertex's row, the edges
    it meets.  The cap of TAYLOR_BOUND_GENERATORS is the lcm lattice's, so
    the bound applies exactly where the lattice can give it; it also bounds
    the search to 2^20 nodes.
    """
    if hypergraph.num_vertices > TAYLOR_BOUND_GENERATORS:
        raise CapExceededError(f"Taylor bound capped at {TAYLOR_BOUND_GENERATORS} generators")
    rows = [0] * hypergraph.num_vertices
    for i, e in enumerate(simples):
        for k in _bits(e):
            rows[k] |= 1 << i
    rows = [r for r in rows if r]
    # all the rows, or one row per edge, is a cover
    tau = _cover_search(rows, (1 << len(simples)) - 1, 0, 0, min(len(rows), len(simples)))
    closed = hypergraph.num_vertices - hypergraph.open_mask.bit_count()
    return hypergraph.label_count - closed - tau


def _cover_search(rows: list[int], uncovered: int, banned: int, size: int, best: int) -> int:
    """The fewest rows whose union holds ``uncovered``, plus ``size``, or
    ``best`` when that is no smaller; rows in the ``banned`` mask are not used.

    Some row meeting the lowest uncovered edge is in every cover, so the
    search branches over those rows, and bans each one tried from the
    branches after it: every row set is visited once at most.  A subtree is
    dropped when even the widest free row could not beat ``best``.
    """
    if not uncovered:
        return size
    widest = max(((r & uncovered).bit_count() for j, r in enumerate(rows)
                  if not banned >> j & 1), default=0)
    if not widest or size - (-uncovered.bit_count() // widest) >= best:
        return best
    low = uncovered & -uncovered
    for j, r in enumerate(rows):
        if r & low and not banned >> j & 1:
            best = _cover_search(rows, uncovered & ~r, banned, size + 1, best)
            banned |= 1 << j
    return best


def iso_upper_bound(hypergraph: LabeledHypergraph) -> int:
    """Upper bound |X| - |V| when no two open vertices are adjacent."""
    if not has_isolated_open_vertices(hypergraph):
        raise ValueError("hypergraph has adjacent open vertices; use fill_upper_bound")
    return hypergraph.label_count - hypergraph.num_vertices


def min_fill_number(hypergraph: LabeledHypergraph) -> tuple[int, frozenset[int]]:
    """Minimum number of open vertices to close so no two open ones stay adjacent.

    This is a minimum vertex cover of the open-open adjacency graph,
    solved exactly by branch and bound seeded with a greedy cover.  The
    search runs on the hypergraph's vertex masks: ``alive`` holds the
    vertices still in the graph, and an edge counts while both ends are
    alive.  Ties go to the lowest bit, the smallest vertex.  Pruning drops
    only subtrees that cannot beat the best cover strictly and branching
    never reads that cover, so a stronger bound leaves the result unchanged.
    """
    opens = hypergraph.open_mask
    adjacency = [a & opens for a in hypergraph.adjacency]
    cover = _min_vertex_cover(adjacency, opens)
    return cover.bit_count(), hypergraph.vertex_set(cover)


def _max_degree(adjacency: list[int], alive: int) -> int | None:
    """The first alive vertex of maximum degree, or None when no edge is left."""
    v = max(_bits(alive), key=lambda u: (adjacency[u] & alive).bit_count(), default=None)
    return v if v is not None and adjacency[v] & alive else None


def _greedy_cover(adjacency: list[int], alive: int) -> int:
    """Take a vertex of maximum degree, the lowest on a tie, until no edge is
    left.  The degrees are kept in a list, dead vertices at 0, and each pick
    lowers those of its alive neighbours."""
    degree = [(a & alive).bit_count() if alive >> u & 1 else 0 for u, a in enumerate(adjacency)]
    chosen = 0
    while top := max(degree, default=0):
        v = degree.index(top)
        chosen |= 1 << v
        alive &= ~(1 << v)
        degree[v] = 0
        rest = adjacency[v] & alive
        while rest:
            low = rest & -rest
            degree[low.bit_length() - 1] -= 1
            rest ^= low
    return chosen


def _clique_lower(adjacency: list[int], alive: int) -> int:
    """Sum of |C| - 1 over cliques C, grown in bit order from the lowest vertex
    left, that partition the alive vertices: a cover misses one vertex of C at most.

    It is never below the greedy matching M(G), in which each unmatched
    vertex, in bit order, takes its lowest unmatched neighbour, so that
    matching would never prune where this bound has not.

    First, deleting a vertex x lowers M by 0 or 1.  Run the greedy on G,
    and on G - x as the same run with x counted as matched from the start.
    The two matched sets differ in one vertex y after every step, x at the
    start.  A step at a vertex matched in both runs does nothing; one at a
    vertex free in both looks for its lowest free neighbour among sets that
    differ only in y; one at y acts in one run only.  After it the sets
    differ in y, in the vertex stepped at, or in its new partner alone.  A
    matched set has an even size, so the two sizes end 1 apart, and the
    matchings differ by 0 or 1.

    Then induct on the first clique C, grown from the lowest vertex r.  If
    r has no neighbour, C = {r} and M(G) = M(G - r).  Otherwise the greedy
    first matches r with u1, its lowest neighbour and the first vertex C
    takes, and then runs as on G - r - u1.  Deleting the other |C| - 2
    vertices of C lowers that by at most |C| - 2, so M(G) <= |C| - 1 +
    M(G - C), and the cliques after C partition G - C.
    """
    size = 0
    while alive:
        clique = low = alive & -alive
        grow = adjacency[low.bit_length() - 1] & alive
        while grow:
            u = grow & -grow
            clique |= u
            grow &= adjacency[u.bit_length() - 1]
        alive &= ~clique
        size += clique.bit_count() - 1
    return size


def _min_vertex_cover(adjacency: list[int], alive: int) -> int:
    best = _greedy_cover(adjacency, alive)

    def search(alive: int, chosen: int) -> None:
        nonlocal best
        # degree-1 reduction: the neighbor of a pendant vertex is always safe
        while (pendant := next((v for v in _bits(alive)
                                if (adjacency[v] & alive).bit_count() == 1), None)) is not None:
            chosen |= adjacency[pendant] & alive
            alive &= ~adjacency[pendant]
        v = _max_degree(adjacency, alive)
        if v is None:
            if chosen.bit_count() < best.bit_count():
                best = chosen
            return
        need = best.bit_count() - chosen.bit_count()
        if _clique_lower(adjacency, alive) >= need:
            return
        search(alive & ~(1 << v), chosen | (1 << v))
        nbrs = adjacency[v] & alive
        search(alive & ~((1 << v) | nbrs), chosen | nbrs)

    search(alive, 0)
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
    correction = sum(e.bit_count() - 1 for e in _simple_masks(hypergraph))
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
    value = hypergraph.label_count - hypergraph.num_vertices
    if not hypergraph.open_mask:
        return value, frozenset()
    closed = ((1 << hypergraph.num_vertices) - 1) & ~hypergraph.open_mask
    candidates = [k for k in _bits(closed) if hypergraph.edge_masks[1 << k] == 1]
    if len(candidates) > MATCHING_CANDIDATE_CAP:
        raise CapExceededError(
            f"matching search capped at {MATCHING_CANDIDATE_CAP} closed vertices")
    adjacency = hypergraph.adjacency

    def search(uncovered: int, chosen: int) -> int | None:
        if not uncovered:
            return chosen
        lowest = uncovered & -uncovered
        for c in candidates:
            # a chosen c has no uncovered neighbour, so it is skipped here too
            if not adjacency[c] & lowest or adjacency[c] & chosen:
                continue
            result = search(uncovered & ~adjacency[c], chosen | (1 << c))
            if result is not None:
                return result
        return None

    witness = search(hypergraph.open_mask, 0)
    if witness is None:
        return None
    return value, hypergraph.vertex_set(witness)


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

    hypergraph: LabeledHypergraph
    dim: int
    methods: tuple[MethodResult, ...]
    best_upper: tuple[str, int]
    best_lower: tuple[str, int] | None

    @property
    def label_count(self) -> int:
        return self.hypergraph.label_count

    @property
    def num_vertices(self) -> int:
        return self.hypergraph.num_vertices

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
            "hypergraph": {"X": self.label_count, "V": self.num_vertices, "dim": self.dim},
            "methods": [{"id": m.method, "applicable": m.applicable, "value": m.value,
                         "witness": m.witness} for m in self.methods],
            "best_upper": {"id": self.best_upper[0], "value": self.best_upper[1]},
            "best_lower": (
                None if self.best_lower is None
                else {"id": self.best_lower[0], "value": self.best_lower[1]}),
        }


def best_bounds(ideal: MonomialIdeal) -> BoundReport:
    """Evaluate every applicable method; never reads a Betti table.

    Ties among equal best values prefer exact formulas over mere bounds,
    then earlier methods in the fixed registry order.
    """
    hypergraph = build_hypergraph(ideal)
    base = hypergraph.label_count - hypergraph.num_vertices
    dim = dimension(hypergraph)
    isolated_open = has_isolated_open_vertices(hypergraph)
    simples = _simple_masks(hypergraph)
    results = {m: MethodResult(m, False) for m in ALL_METHODS}

    def applies(method: str, value: int, witness: dict | None = None) -> None:
        results[method] = MethodResult(method, True, value, witness)

    if is_saturated(hypergraph):
        applies("saturated_formula", base, {"projective_dimension": hypergraph.num_vertices})
    try:
        applies("taylor_bound", _taylor_bound(hypergraph, simples))
    except CapExceededError:
        pass
    if isolated_open:
        applies("isolated_open_bound", base)
    t, fill_set = min_fill_number(hypergraph)
    applies("fill_bound", base + t, {"t": t, "fill_set": sorted(fill_set)})
    if _each_open_in_one(hypergraph, simples):
        applies("simple_edge_formula", base + sum(e.bit_count() - 1 for e in simples),
                {"simple_edges": sorted([hypergraph.vertices[k] for k in _bits(e)]
                                        for e in simples)})
    match = None
    if dim == 1:
        try:
            match = matching_lower_bound(hypergraph)
        except CapExceededError:
            pass
    if match is not None:
        applies("matching_lower", base, {"closed_vertices": sorted(match[1])})
        if isolated_open:
            applies("matching_formula", base, {"closed_vertices": sorted(match[1])})

    best_upper = min(
        ((m, results[m].value) for m in UPPER_METHODS if results[m].applicable),
        key=lambda mv: (mv[1], UPPER_METHODS.index(mv[0])))
    best_lower = max(
        ((m, results[m].value) for m in LOWER_METHODS if results[m].applicable),
        key=lambda mv: (mv[1], -LOWER_METHODS.index(mv[0])), default=None)

    return BoundReport(
        hypergraph=hypergraph,
        dim=dim,
        methods=tuple(results[m] for m in ALL_METHODS),
        best_upper=best_upper,
        best_lower=best_lower,
    )
