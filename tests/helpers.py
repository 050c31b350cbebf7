"""Shared helpers for the test suite."""

import random
import re
from contextlib import contextmanager
from itertools import permutations
from unittest.mock import patch

from hypothesis import strategies as st

from hyperreg import bounds, oracle
from hyperreg.bounds import MATCHING_CANDIDATE_CAP
from hyperreg.hypergraph import LabeledHypergraph, dimension
from hyperreg.monomials import (
    Alphabet,
    IdealFormatError,
    Monomial,
    MonomialIdeal,
    UnitIdealError,
    _bits,
    _minimal_masks,
    minimalize,
    parse_ideal,
)
from hyperreg.oracle import (
    BettiTable,
    CapExceededError,
    SimplicialComplex,
    TaylorComplex,
    _subset_lcms,
)
from hyperreg.randgen import random_ideal, variable_names


def _support_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Reference canonical generator order: degree, then lexicographic on
    the tuple of bit positions."""
    return (mask.bit_count(), tuple(_bits(mask)))


_NAME_RE = re.compile(r"\w+", re.ASCII)


def reference_parse(text: str) -> MonomialIdeal:
    """Reference ideal parser: a regex scan for the tokens of each line with
    their columns, a regex check per token, one ``Monomial`` per generator
    and ``minimalize``."""
    extra_vars: set[str] = set()
    raw_generators: list[tuple[int, list[tuple[str, int]]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if tokens[0][0] == "vars:":
            for tok, col in tokens[1:]:
                if not _NAME_RE.fullmatch(tok):
                    raise IdealFormatError(f"invalid variable name {tok!r}", lineno, col)
                extra_vars.add(tok)
            continue
        seen: set[str] = set()
        for tok, col in tokens:
            if not _NAME_RE.fullmatch(tok):
                raise IdealFormatError(f"invalid variable name {tok!r}", lineno, col)
            if tok in seen:
                raise IdealFormatError(
                    f"variable {tok!r} repeated within one generator (not square-free)",
                    lineno, col)
            seen.add(tok)
        raw_generators.append((lineno, tokens))
    if not raw_generators:
        raise IdealFormatError("no generators in ideal text")
    names: set[str] = set(extra_vars)
    for _, tokens in raw_generators:
        names.update(tok for tok, _ in tokens)
    alphabet = Alphabet.of(names)
    gens = [Monomial.of(alphabet, [tok for tok, _ in tokens]) for _, tokens in raw_generators]
    return minimalize(gens)


def word_ideal(words: str) -> MonomialIdeal:
    """Build an ideal from space-separated words of single-letter variables."""
    return parse_ideal("\n".join(" ".join(w) for w in words.split()))


def brute_force_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """Independent transversal oracle: scan all subsets of the alphabet."""
    n = len(ideal.alphabet)
    assert n <= 12, "brute-force dual oracle is for small alphabets"
    gens = ideal.generator_masks
    transversals = [m for m in range(1, 1 << n) if all(m & g for g in gens)]
    minimal = [m for m in transversals
               if not any(t != m and t & ~m == 0 for t in transversals)]
    return MonomialIdeal(ideal.alphabet, tuple(sorted(minimal, key=_support_key)))


def reference_generator_check(num_vars: int, masks: tuple[int, ...]) -> type | None:
    """Independent rule for ``MonomialIdeal`` generators: the exception class
    the constructor must raise, or None when the tuple is canonical.  Order
    is checked by sorting, minimality by comparing every pair."""
    if not masks:
        return ValueError
    top = (1 << num_vars) - 1
    for m in masks:
        if m == 0:
            return UnitIdealError
        if m & ~top:
            return ValueError
    if list(masks) != sorted(set(masks), key=_support_key):
        return ValueError
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & ~b == 0 or b & ~a == 0:
                return ValueError
    return None


@st.composite
def ideals(draw, max_vars=12, max_gens=12):
    """Square-free ideals: up to ``max_gens`` drawn supports, minimalized."""
    nv = draw(st.integers(1, max_vars))
    masks = draw(st.lists(st.integers(1, (1 << nv) - 1), min_size=1, max_size=max_gens))
    return MonomialIdeal(Alphabet(variable_names(nv)), tuple(_minimal_masks(masks)))


@st.composite
def labelings(draw, max_vertices=14):
    """Vertices and labelings built by hand: unsorted, non-contiguous vertex
    ids, edges of at most two or three vertices, and possibly vertices in no
    edge."""
    vertices = draw(st.lists(st.integers(0, 99), min_size=1, max_size=max_vertices, unique=True))
    size = draw(st.integers(2, 3))
    images = draw(st.lists(
        st.lists(st.sampled_from(vertices), min_size=1, max_size=size, unique=True),
        min_size=1, max_size=3 * len(vertices)))
    return vertices, {f"x{i:02d}": image for i, image in enumerate(images)}


def labeled_hypergraphs(max_vertices=14):
    """The hypergraphs of :func:`labelings`."""
    return labelings(max_vertices).map(lambda drawn: LabeledHypergraph(*drawn))


def subset_scan_strands(ideal: MonomialIdeal) -> dict[int, tuple[int, int, int]]:
    """Reference Taylor strands: scan all 2^mu generator subsets and map each
    lcm to the smallest and the largest size of a subset giving it, and to
    the sum of (-1)^|S| over the subsets S giving it."""
    gens = ideal.generator_masks
    assert len(gens) <= 16, "the subset scan is for few generators"
    strands: dict[int, tuple[int, int, int]] = {}
    for s in range(1, 1 << len(gens)):
        lcm = 0
        for k in _bits(s):
            lcm |= gens[k]
        size = s.bit_count()
        low, high, signed = strands.get(lcm, (size, size, 0))
        strands[lcm] = (min(low, size), max(high, size), signed + (-1) ** size)
    return strands


def subset_scan_levels(ideal: MonomialIdeal) -> dict[int, int]:
    """Reference lcm lattice: each lcm mapped to the size of the smallest
    generator subset giving it."""
    return {lcm: low for lcm, (low, _, _) in subset_scan_strands(ideal).items()}


def assert_support_key_order(table: BettiTable) -> None:
    """Entries run by homological index, then by ``_support_key`` of the degree."""
    assert list(table.entries) == sorted(table.entries, key=lambda k: (k[0], _support_key(k[1])))


def dense_rank(rows: list[list[int]], p: int) -> int:
    """Independent rank oracle: dense Gaussian elimination over GF(p)."""
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        row = [a % p for a in row]
        for col, prow in pivots:
            f = row[col]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            pivots.append((lead, [(a * inv) % p for a in row]))
    return len(pivots)


def dense_boundary(layers, d: int) -> list[list[int]]:
    """The differential on ``layers[d]`` as a dense integer matrix, one row
    per mask and one column per mask of ``layers[d - 1]``: dropping the k-th
    lowest bit of a mask contributes (-1)^k when the smaller mask is there."""
    below = list(layers.get(d - 1, ()))
    rows = []
    for m in layers.get(d, ()):
        row = [0] * len(below)
        for k, v in enumerate(j for j in range(m.bit_length()) if m >> j & 1):
            smaller = m ^ (1 << v)
            if smaller in below:
                row[below.index(smaller)] = -1 if k % 2 else 1
        rows.append(row)
    return rows


def uncleared_chain_ranks(layers, p: int) -> dict[int, int]:
    """Reference homology ranks: every boundary rank by dense elimination
    over all rows, with no clearing."""
    rank = {d: dense_rank(dense_boundary(layers, d), p) for d in layers}
    ranks = {}
    for d in sorted(layers):
        r = len(layers[d]) - rank[d] - rank.get(d + 1, 0)
        if r:
            ranks[d] = r
    return ranks


def hochster_betti(ideal: MonomialIdeal, p: int) -> dict[tuple[int, int], int]:
    """Reference Betti table of R/I over GF(p) by Hochster's formula.

    beta_{i,b} = dim H~_{|b|-i-1}(Delta|_b) for every set b of variables,
    where Delta, the Stanley-Reisner complex of I, holds the variable sets
    that contain no generator, and Delta|_b its faces inside b.  Only the
    generator masks and the number of variables are read from the package.
    """
    n = len(ideal.alphabet)
    assert n <= 8, "the Hochster oracle scans every subset of the variables"
    gens = ideal.generator_masks
    delta = [s for s in range(1 << n) if all(g & ~s for g in gens)]
    table = {}
    for b in range(1 << n):
        layers: dict[int, list[int]] = {}
        for s in delta:
            if s & ~b == 0:
                layers.setdefault(s.bit_count() - 1, []).append(s)
        for d, rank in uncleared_chain_ranks(layers, p).items():
            table[(b.bit_count() - d - 1, b)] = rank
    return table


def nerve_faces(facets: list[int]) -> set[int]:
    """Reference nerve: the subsets of the facets' positions, as masks, whose
    facets share a vertex, and the empty subset."""
    common = [-1]  # the empty subset meets in every vertex
    for s in range(1, 1 << len(facets)):
        low = (s & -s).bit_length() - 1
        common.append(common[s & (s - 1)] & facets[low])
    return {s for s, meet in enumerate(common) if meet}


def faces(complex_: SimplicialComplex, dim: int) -> tuple[frozenset, ...]:
    """The faces of one dimension, as sets of vertex names."""
    return tuple(frozenset(complex_.vertices[b] for b in _bits(mask))
                 for mask in complex_.faces_by_dim.get(dim, ()))


def has_face(complex_: SimplicialComplex, face) -> bool:
    members = frozenset(face)
    return members in faces(complex_, len(members) - 1)


def taylor_rank(complex_: TaylorComplex, i: int) -> int:
    """Number of basis elements of the Taylor complex in homological degree i."""
    return sum(1 for s in range(1 << complex_.num_generators) if s.bit_count() == i)


def isomorphic(a: LabeledHypergraph, b: LabeledHypergraph) -> bool:
    """Equality up to a vertex permutation (labels must match exactly).

    A permutation pi works iff every vertex maps to one with the same label
    set, so candidates are grouped by label profile and matched by
    backtracking; profile groups are tiny in practice.
    """
    if a.num_vertices != b.num_vertices or sorted(a.labels) != sorted(b.labels):
        return False
    profile_a = {v: frozenset(a.vertex_labels(v)) for v in a.vertices}
    profile_b: dict[frozenset[str], list[int]] = {}
    for w in b.vertices:
        profile_b.setdefault(frozenset(b.vertex_labels(w)), []).append(w)
    groups: list[tuple[list[int], list[int]]] = []
    seen: set[frozenset[str]] = set()
    for v in a.vertices:
        p = profile_a[v]
        if p in seen:
            continue
        seen.add(p)
        mine = [u for u in a.vertices if profile_a[u] == p]
        theirs = profile_b.get(p, [])
        if len(mine) != len(theirs):
            return False
        groups.append((mine, theirs))

    def check(mapping: dict[int, int]) -> bool:
        for name, image in a.labels.items():
            if frozenset(mapping[v] for v in image) != b.labels[name]:
                return False
        return True

    def backtrack(i: int, mapping: dict[int, int]) -> bool:
        if i == len(groups):
            return check(mapping)
        mine, theirs = groups[i]
        for perm in permutations(theirs):
            mapping.update(zip(mine, perm))
            if backtrack(i + 1, mapping):
                return True
        return False

    return backtrack(0, {})


def unit_entry_scan(ideal: MonomialIdeal) -> bool:
    """Reference Taylor minimality: for every generator subset S of size at
    least two and every j in S, the lcm drops when j is removed."""
    lcms = _subset_lcms(ideal)
    for s in range(1 << ideal.num_generators):
        if s.bit_count() < 2:
            continue
        for b in _bits(s):
            if lcms[s] == lcms[s ^ (1 << b)]:
                return False
    return True


# Reference hypergraph views, predicates and searches on frozensets and dicts
# of sets; the package computes the same sets on vertex bitmasks.

def ideal_labeling(ideal: MonomialIdeal) -> dict[str, list[int]]:
    """Each variable used, mapped to the generators (numbered from 1) it divides."""
    labeling: dict[str, list[int]] = {}
    for j, generator in enumerate(ideal.generators, start=1):
        for name in generator.support:
            labeling.setdefault(name, []).append(j)
    return labeling


def ref_views(labeling) -> tuple[dict, tuple, dict]:
    """``labels``, ``edges`` and ``edge_labels`` built eagerly from a labeling:
    labels in name order, edges by size and then by sorted members, and each
    edge's labels in name order."""
    labels = {name: frozenset(labeling[name]) for name in sorted(labeling)}
    names: dict[frozenset[int], list[str]] = {}
    for name, image in labels.items():
        names.setdefault(image, []).append(name)
    edges = tuple(sorted(names, key=lambda e: (len(e), sorted(e))))
    return labels, edges, {e: tuple(names[e]) for e in edges}


def ref_hash(vertices, labeling) -> int:
    """The hash of a hypergraph: its sorted vertices and its sorted labels."""
    labels, _, _ = ref_views(labeling)
    return hash((tuple(sorted(set(vertices))), tuple(sorted(labels.items()))))


def ref_separation_witness(hypergraph: LabeledHypergraph) -> tuple[int, int] | None:
    for v in hypergraph.vertices:
        for w in hypergraph.vertices:
            if v != w and not any(v in e and w not in e for e in hypergraph.edges):
                return v, w
    return None


def ref_simple_edges(hypergraph: LabeledHypergraph) -> frozenset[frozenset[int]]:
    edges = hypergraph.edges
    return frozenset(e for e in edges if len(e) >= 2 and not any(f < e for f in edges))


def ref_each_open_in_one(hypergraph: LabeledHypergraph, edges) -> bool:
    return all(sum(1 for e in edges if v in e) == 1 for v in ref_open_vertices(hypergraph))


def ref_dimension(hypergraph: LabeledHypergraph) -> int:
    return max(len(e) for e in hypergraph.edges) - 1


def ref_closed_vertices(hypergraph: LabeledHypergraph) -> frozenset[int]:
    edge_set = set(hypergraph.edges)
    return frozenset(v for v in hypergraph.vertices if frozenset((v,)) in edge_set)


def ref_open_vertices(hypergraph: LabeledHypergraph) -> frozenset[int]:
    return frozenset(hypergraph.vertices) - ref_closed_vertices(hypergraph)


def ref_neighbors(hypergraph: LabeledHypergraph, v: int) -> frozenset[int]:
    out: set[int] = set()
    for e in hypergraph.edges:
        if v in e:
            out.update(e)
    out.discard(v)
    return frozenset(out)


def ref_has_isolated_open_vertices(hypergraph: LabeledHypergraph) -> bool:
    opens = ref_open_vertices(hypergraph)
    return all(not (ref_neighbors(hypergraph, v) & opens) for v in opens)


def ref_min_fill_number(hypergraph: LabeledHypergraph) -> tuple[int, frozenset[int]]:
    """Minimum vertex cover of the open-open graph, by branch and bound on a
    dict of sets that is copied at every node."""
    opens = sorted(ref_open_vertices(hypergraph))
    adjacency = {
        v: set(ref_neighbors(hypergraph, v)) & set(opens) for v in opens}
    cover = _ref_min_vertex_cover(adjacency)
    return len(cover), frozenset(cover)


def _ref_greedy_cover(adjacency: dict[int, set[int]]) -> set[int]:
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


def _ref_matching_lower(adj: dict[int, set[int]]) -> int:
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


@contextmanager
def counting_fill_nodes():
    """Count the nodes of the fill search into the yielded list's one entry.

    Every node picks its branch vertex, or finds no edge left, by one
    ``_max_degree`` call; the greedy seed keeps its own degrees and makes none.
    """
    count = [0]
    max_degree = bounds._max_degree

    def counted(adjacency, alive):
        count[0] += 1
        return max_degree(adjacency, alive)

    with patch.object(bounds, "_max_degree", counted):
        yield count


def max_degree_greedy_cover(adjacency: list[int], alive: int) -> int:
    """Reference greedy seed on masks: each pick rescans the degree of every
    alive vertex with ``_max_degree``."""
    chosen = 0
    while (v := bounds._max_degree(adjacency, alive)) is not None:
        chosen |= 1 << v
        alive &= ~(1 << v)
    return chosen


@contextmanager
def counting_union_homology():
    """Count the oracle's ``_union_homology`` calls, the degrees whose
    homology is taken, into the yielded list's one entry."""
    count = [0]
    union_homology = oracle._union_homology

    def counted(facets, p):
        count[0] += 1
        return union_homology(facets, p)

    with patch.object(oracle, "_union_homology", counted):
        yield count


def _ref_min_vertex_cover(adjacency: dict[int, set[int]]) -> set[int]:
    best = _ref_greedy_cover(adjacency)

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
        if len(chosen) + _ref_matching_lower(adj) >= len(best):
            return
        v = max(sorted(adj), key=lambda u: len(adj[u]))
        taken = {u: ns - {v} for u, ns in adj.items() if u != v}
        search(taken, chosen | {v})
        nbrs = adj[v]
        left = {u: ns - nbrs for u, ns in adj.items() if u != v and u not in nbrs}
        search(left, chosen | nbrs)

    search(adjacency, set())
    return best


def ref_matching_lower_bound(
        hypergraph: LabeledHypergraph) -> tuple[int, frozenset[int]] | None:
    """Matching witness search on sets: candidates in ascending order, each
    covering the lowest uncovered open vertex."""
    if dimension(hypergraph) != 1:
        raise ValueError("matching bound needs a one-dimensional hypergraph")
    opens = sorted(ref_open_vertices(hypergraph))
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
    nbrs = {v: ref_neighbors(hypergraph, v) for v in set(candidates) | set(opens)}

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


def draws_at_the_lattice_cap() -> list[MonomialIdeal]:
    """Ten seeded draws of 20 generators on 26 variables, the most
    generators the lcm lattice takes."""
    rng = random.Random(5)
    return [random_ideal(rng, 26, 20) for _ in range(10)]


def ideal_text(ideal: MonomialIdeal) -> str:
    """The ideal as the CLI reads it: one generator per line."""
    return "".join(" ".join(ideal.alphabet.names_of(g)) + "\n" for g in ideal.generator_masks)


def greedy_matching(adjacency: list[int], alive: int) -> int:
    """Size of the greedy matching on the alive vertices of a mask graph:
    each unmatched vertex, in bit order, takes its lowest unmatched alive
    neighbour."""
    return _ref_matching_lower({v: set(_bits(adjacency[v] & alive)) for v in _bits(alive)})
