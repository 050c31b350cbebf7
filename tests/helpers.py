"""Shared helpers for the test suite."""

from itertools import permutations

from hypothesis import strategies as st

from hyperreg.hypergraph import LabeledHypergraph
from hyperreg.monomials import (
    Alphabet,
    MonomialIdeal,
    _bits,
    _minimal_masks,
    _support_key,
    parse_ideal,
)
from hyperreg.oracle import BettiTable, SimplicialComplex, TaylorComplex, _maximal_masks
from hyperreg.randgen import variable_names


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


@st.composite
def ideals(draw, max_vars=12, max_gens=12):
    """Square-free ideals: up to ``max_gens`` drawn supports, minimalized."""
    nv = draw(st.integers(1, max_vars))
    masks = draw(st.lists(st.integers(1, (1 << nv) - 1), min_size=1, max_size=max_gens))
    return MonomialIdeal(Alphabet(variable_names(nv)), tuple(_minimal_masks(masks)))


def subset_scan_levels(ideal: MonomialIdeal) -> dict[int, int]:
    """Reference lcm lattice: scan all 2^mu generator subsets and map each
    lcm to the size of the smallest subset giving it."""
    gens = ideal.generator_masks
    assert len(gens) <= 16, "the subset scan is for few generators"
    levels: dict[int, int] = {}
    for s in range(1, 1 << len(gens)):
        lcm = 0
        for k in _bits(s):
            lcm |= gens[k]
        levels[lcm] = min(levels.get(lcm, s.bit_count()), s.bit_count())
    return levels


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
        for k, v in enumerate(_bits(m)):
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


def faces(complex_: SimplicialComplex, dim: int) -> tuple[frozenset, ...]:
    """The faces of one dimension, as sets of vertex names."""
    return tuple(frozenset(complex_.vertices[b] for b in _bits(mask))
                 for mask in complex_.faces_by_dim.get(dim, ()))


def has_face(complex_: SimplicialComplex, face) -> bool:
    members = frozenset(face)
    return members in faces(complex_, len(members) - 1)


def restart_strong_collapse(facets: list[int]) -> list[int]:
    """Reference strong collapse: delete one dominated vertex at a time,
    re-maximalize the facets and restart the scan."""
    facets = _maximal_masks(facets)
    changed = True
    while changed:
        changed = False
        union = 0
        for f in facets:
            union |= f
        for v in _bits(union):
            bit = 1 << v
            common = ~0
            for f in facets:
                if f & bit:
                    common &= f
            if common & ~bit & union:
                facets = _maximal_masks([f & ~bit for f in facets])
                changed = True
                break
    return facets


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
