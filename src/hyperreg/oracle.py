"""Exact multigraded Betti numbers of square-free monomial ideals over GF(p).

Two independent routes compute the same table for R/I:

* :func:`betti_table` places, at every lcm-lattice degree b, the divisibility
  complex whose faces are the variable subsets t of b with the monomial on
  b minus t lying in I, and reads Betti numbers off its reduced homology.
* :func:`taylor_strand_betti` restricts the Taylor complex to each
  multidegree, reducing differential entries to scalars, and takes homology
  of the resulting strands.

Both routes build their boundary rows the same way and share one exact
rank kernel, whose row form depends only on p: a bit mask when p = 2, two
bit masks (the +1 and the -1 columns) reduced by bit-sliced addition when
p = 3, and sparse ``{column: residue}`` rows for larger primes.  A boundary
row has at most |b| nonzero entries, all of them +1 or -1.  Ranks are
taken from the top dimension down with clearing: a face that the
differential above pivots on gets no row of its own.

Most lattice degrees build no complex.  The Betti numbers at b are the
homology of the Taylor strand at b (Taylor resolution; Gasharov-Peeva-Welker,
*The lcm-lattice in monomial resolutions*): the generator subsets S with
lcm(S) = b in homological degree |S|, where the boundary of S keeps, as +1
or -1, each S minus one generator of the same lcm.  The lattice records at
each b its level k, the fewest generators with lcm b, its divisors D, the
most, and the signed count f(b), the sum of (-1)^|S| over the strand.
When |D| = k the strand is the one cell D.  When |D| = k + 1 it is D and
the r >= 1 cells D minus one generator with lcm b, each hit by the boundary
of D with +1 or -1, so beta_{k,b} = r - 1 is its only rank, over every
field.  Either way beta_{k,b} = (-1)^k f(b), and only degrees with |D| >=
k + 2 reach a divisibility complex.

Each divisibility complex is first peeled with bit operations on its
facets.  By the nerve theorem the complex has the homotopy type of the
nerve of its facets, and the facets that miss a vertex all the others hold
split off as a suspension (Gasharov-Peeva-Welker, *The lcm-lattice in
monomial resolutions*; Barmak-Minian, *Strong homotopy types, nerves and
collapses*).  When every generator dividing b has a variable of b that no
other divisor has, that settles the degree: beta_{k,b} = 1 for the k
divisors, as in the Taylor complex, and no other rank there (betti_table
reads such degrees off the lattice first).  Cones
and a peel that covers the complex give no homology.  What is left is
shrunk by deleting dominated vertices in passes (a strong collapse, which
preserves homotopy type and hence all homology ranks).  A core that is the
boundary of a simplex is a sphere and builds no faces.  Otherwise a core
on at most 16 vertices (so under the face cap) is matched: with its faces
as one bit per vertex subset, element matchings pair a face with the face
one vertex larger, for each vertex in turn, the first being v, the vertex
in the most facets.  They are acyclic (Jonsson, *Simplicial Complexes of
Graphs*) and every incidence is +1 or -1, so the unmatched, critical
cells carry a Morse complex with the same integral homology (Forman,
*Morse theory for cell complexes*); when no two adjacent dimensions hold
critical cells, their counts are the ranks.  Other cores reach the
boundary matrices relative to the closed star of v, a cone, so H~(K) =
H(K, st v) and only the faces outside the star get a basis element
(Mrozek-Pilarczyk-Zelazna, *Homology algorithm based on acyclic
subspace*); the first matching is that excision.  The raw no-collapse path
eliminates the whole complex, and is kept and cross-checked by the tests.

The lcm lattice is built as a closure, one generator at a time, recording
for each element its level, divisors and signed count; the Taylor bound
reads the same levels, from one build per ideal.  Only the Taylor-complex
routes scan all 2^mu generator subsets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .monomials import Alphabet, CapExceededError, Monomial, MonomialIdeal, _bits, _support_key

MAX_LATTICE_GENERATORS = 20
MAX_TAYLOR_GENERATORS = 16
MAX_COMPLEX_FACES = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(p) used for all homology ranks."""

    characteristic: int

    def __post_init__(self) -> None:
        p = self.characteristic
        if not (2 <= p < (1 << 16)) or not _is_prime(p):
            raise ValueError(f"characteristic must be a prime below 2^16, got {p}")


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


# ---------------------------------------------------------------------------
# GF(p) ranks

def _rank_gf2(rows: list[int]) -> AbstractSet[int]:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row ^= piv
    return pivots.keys()


def _rank_sparse(rows: Iterable[dict[int, int]], p: int) -> AbstractSet[int]:
    """Pivot columns over GF(p), as many as the rank, of rows given as
    ``{column: nonzero residue}``.

    Pivots on the highest column of each row, as :func:`_rank_gf2` does;
    each pivot row is stored scaled to a leading 1.  The rows are reduced
    in place.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = max(row)
            f = row[lead]
            piv = pivots.get(lead)
            if piv is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    row = {c: a * inv % p for c, a in row.items()}
                pivots[lead] = row
                break
            for c, a in piv.items():
                # f * a is nonzero, so a column missing from row never cancels
                x = (row.get(c, 0) - f * a) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return pivots.keys()


def _rank_gf3(rows: Iterable[tuple[int, int]]) -> AbstractSet[int]:
    """Pivot columns over GF(3), as many as the rank, of rows given as
    ``(pos, neg)``: the mask of the +1 columns and the mask of the -1 columns.

    Pivots on the highest column of each row, as :func:`_rank_gf2` does;
    each pivot row is stored scaled to a leading +1, which swaps its masks.
    A row is reduced by adding the pivot, or its negation, bit-sliced:
    1 + 1 = -1 and -1 + -1 = 1.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for pos, neg in rows:
        while pos | neg:
            lead = (pos | neg).bit_length() - 1
            plus = pos >> lead & 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = (pos, neg) if plus else (neg, pos)
                break
            # subtract the pivot scaled to the row's leading entry
            n2, p2 = piv if plus else (piv[1], piv[0])
            pos, neg = (((pos ^ p2) & ~(neg | n2)) | (neg & n2),
                        ((neg ^ n2) & ~(pos | p2)) | (pos & p2))
    return pivots.keys()


def _boundary_rank(rows: list[tuple[int, int]], p: int) -> AbstractSet[int]:
    """Pivot columns over GF(p), as many as the rank, of a matrix whose
    nonzero entries are all +1 or -1.

    A row is a pair of column masks: its support, and the subset of the
    support holding -1.  GF(2) and GF(3) eliminate the masks themselves;
    larger primes need the ``{column: residue}`` rows of :func:`_rank_sparse`.
    """
    if p == 2:
        return _rank_gf2([support for support, _ in rows])
    if p == 3:
        return _rank_gf3([(support & ~negative, negative) for support, negative in rows])
    sparse = []
    for support, negative in rows:
        row = {}
        while support:
            low = support & -support
            support ^= low
            row[low.bit_length() - 1] = p - 1 if negative & low else 1
        sparse.append(row)
    return _rank_sparse(sparse, p)


# ---------------------------------------------------------------------------
# Simplicial complexes

class SimplicialComplex:
    """Finite abstract simplicial complex, stored as its facets.

    ``facets`` holds the maximal antichain of the given vertex masks over
    ``vertices``; faces are built from it only on demand, by
    ``faces_by_dim``, capped at ``MAX_COMPLEX_FACES``.  The empty face has
    dimension -1.  A complex with no faces at all is void and carries no
    homology, while the complex whose only face is empty has reduced
    homology of rank 1 in dimension -1.
    """

    def __init__(self, vertices: tuple, facets: Iterable[int]):
        self.vertices = vertices
        self.facets = tuple(_maximal_masks(facets))

    @classmethod
    def from_faces(cls, vertices: Iterable, faces: Iterable[Iterable]) -> "SimplicialComplex":
        """Build from explicit faces, validating downward closure."""
        faces = [frozenset(f) for f in faces]
        complex_ = cls.from_facets(vertices, faces)
        # the faces lie in the closure of their maximal ones, so equal counts mean equal sets
        if complex_.num_faces != len(set(faces)):
            raise ValueError("face set is not downward closed")
        return complex_

    @classmethod
    def from_facets(cls, vertices: Iterable, facets: Iterable[Iterable]) -> "SimplicialComplex":
        """Build the downward closure of the given faces."""
        verts = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(verts)}
        facet_masks = []
        for f in facets:
            mask = 0
            for v in f:
                mask |= 1 << index[v]
            facet_masks.append(mask)
        return cls(verts, facet_masks)

    @property
    def faces_by_dim(self) -> dict[int, tuple[int, ...]]:
        return _faces_of_facets(self.facets)

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        if self.is_void:
            raise ValueError("void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def num_faces(self) -> int:
        return sum(len(layer) for layer in self.faces_by_dim.values())


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in kept:
            if m | k == k:
                break
        else:
            kept.append(m)
    return kept


def _strong_collapse(facets: list[int]) -> list[int]:
    """Delete dominated vertices, in passes, until none remain.

    ``facets`` must be an antichain; the facets of the core are returned.
    A vertex is dominated when some other vertex belongs to every facet
    containing it; deleting it preserves the homotopy type, so all reduced
    homology ranks are unchanged.  Each pass takes, for every vertex v, the
    intersection common[v] of the facets containing v, and deletes in vertex
    order each v whose common[v] holds a vertex other than v not yet deleted
    in the pass.  That vertex lies in every facet containing v of the complex
    left by the earlier deletions, so each deletion is a strong collapse.
    """
    while True:
        union = 0
        for f in facets:
            union |= f
        removed = 0
        rest = union
        while rest:
            bit = rest & -rest
            rest ^= bit
            common = union
            for f in facets:
                if f & bit:
                    common &= f
            if common & ~removed & ~bit:
                removed |= bit
        if not removed:
            return facets
        facets = _maximal_masks([f & ~removed for f in facets])


def _face_set(facets: Iterable[int]) -> set[int]:
    """Every face of the given facets, as masks, capped at ``MAX_COMPLEX_FACES``."""
    faces: set[int] = set()
    for f in facets:
        sub = f
        while True:
            faces.add(sub)
            if len(faces) > MAX_COMPLEX_FACES:
                raise CapExceededError(f"complex has more than {MAX_COMPLEX_FACES} faces")
            if sub == 0:
                break
            sub = (sub - 1) & f
    return faces


def _faces_of_facets(facets: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Every face of the given facets, as sorted masks keyed by dimension."""
    grouped: dict[int, list[int]] = {}
    for m in _face_set(facets):
        grouped.setdefault(m.bit_count() - 1, []).append(m)
    return {d: tuple(sorted(layer)) for d, layer in sorted(grouped.items())}


def _outside_star(facets: list[int], bit: int) -> dict[int, tuple[int, ...]]:
    """The faces of the union of ``facets`` outside the closed star of the
    vertex ``bit``, as sorted masks keyed by dimension.

    A face lies in the star when it lies in a facet holding the vertex, so
    the faces outside are those of the facets missing it that lie in no
    link facet ``f & ~bit``.
    """
    layers = _faces_of_facets([f for f in facets if not f & bit])
    link = _face_set(f ^ bit for f in facets if f & bit)
    return {d: tuple(m for m in layer if m not in link) for d, layer in layers.items()}


@lru_cache(maxsize=None)
def _subsets_holding(n: int) -> tuple[int, ...]:
    """For each j < n, the 2^n-bit mask of the subsets of range(n) holding j."""
    if n == 0:
        return ()
    half = 1 << (n - 1)
    return tuple(h | h << half for h in _subsets_holding(n - 1)) + (((1 << half) - 1) << half,)


def _critical_cells(facets: list[int], order: list[int]) -> dict[int, int]:
    """Critical cells by dimension of the element matchings, for the
    vertices in ``order`` one after another, on the faces of ``facets``.

    Vertex order[j] becomes bit j, and the faces, the empty one included,
    the set bits of one 2^n-bit int.  The matching for j pairs each
    unmatched face s missing j with s + j when that is unmatched too.
    """
    has = _subsets_holding(len(order))
    cells = 0
    for f in facets:
        cells |= 1 << sum((f >> v & 1) << j for j, v in enumerate(order))
    for j, h in enumerate(has):  # downward closure
        cells |= (cells & h) >> (1 << j)
    for j, h in enumerate(has):
        m = cells & ~h & (cells & h) >> (1 << j)
        cells &= ~(m | m << (1 << j))
    return Counter(s.bit_count() - 1 for s in _bits(cells))


def _chain_ranks(layers: Mapping[int, Sequence[int]], p: int) -> dict[int, int]:
    """Homology ranks over GF(p) of the chain complex with basis ``layers[d]``.

    The differential sends a mask to the alternating sum of the masks one
    bit smaller, keeping those present in ``layers[d - 1]``.  On the faces of
    a downward-closed complex, keyed by dimension, this is the reduced
    simplicial chain complex; on the faces of a complex outside a
    subcomplex, the relative chain complex, since the dropped terms are
    those of the subcomplex; on a Taylor strand, keyed by subset size, it is
    the strand's differential.

    Ranks are taken from the top down, and a d-mask that is a pivot column
    of the differential on ``layers[d + 1]`` gets no row (clearing): the
    reduced row leading there is a boundary, whose boundary is zero, so the
    mask's row is a combination of the rows before it in ``layers[d]``.
    This needs the rows of one differential and the columns of the next in
    the same ``layers[d]`` order.
    """
    pivots: dict[int, AbstractSet[int]] = {}
    for d in sorted(layers, reverse=True):
        column = {m: 1 << k for k, m in enumerate(layers.get(d - 1, ()))}
        if not column:
            continue
        cleared = pivots.get(d + 1, ())
        rows = []
        for k, m in enumerate(layers[d]):
            if k in cleared:
                continue
            support = negative = sign = 0
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                bit = column.get(m ^ low, 0)
                support |= bit
                negative |= bit & sign  # sign flips between 0 and ~0
                sign = ~sign
            rows.append((support, negative))
        pivots[d] = _boundary_rank(rows, p)
    ranks: dict[int, int] = {}
    for d in sorted(layers):
        r = len(layers[d]) - len(pivots.get(d, ())) - len(pivots.get(d + 1, ()))
        if r:
            ranks[d] = r
    return ranks


def _union_homology(facets: list[int], p: int) -> dict[int, int]:
    """Reduced homology ranks of the union of the given full simplices.

    ``facets`` must be an antichain.  First the facets are peeled, by the
    nerve theorem (the union has the homotopy type of the nerve of its
    facets).  Let P be the facets that miss a vertex every other facet
    holds, Q the rest, and C the intersection of P.  A set of facets that
    lacks some f in P shares the vertex only f misses, so the nerve is
    ``∂Δ_P * Δ_Q ∪ Δ_P * N_Q``, where N_Q is the nerve of the sets f & C
    over f in Q.  When C is empty the nerve is ``∂Δ_P * Δ_Q``: contractible
    if Q is nonempty, and a sphere of dimension |P| - 2 if not.  Otherwise
    Q is nonempty (the facets are no cone) and the nerve is the |P|-fold
    suspension of N_Q, so the peel shifts the ranks by |P| and goes on with
    the union of the f & C.  Every round first checks for a cone (a vertex
    in all facets, which maximalizing the f & C can create), and for the
    complex whose only face is empty.

    A core left without such facets is strong-collapsed.  After the
    collapse, n facets of size n - 1 on n vertices are the boundary of a
    simplex, a sphere of dimension n - 2.  With the vertices by falling
    facet count, the lowest on a tie, a core on n vertices with 2^n <=
    ``MAX_COMPLEX_FACES`` is settled when its element matchings leave
    critical cells in no two adjacent dimensions: the Morse complex then
    has no differential (Jonsson, *Simplicial Complexes of Graphs*;
    Forman, *Morse theory for cell complexes*).  Anything else, such as
    torsion, goes through the chain complex relative to the closed star of
    the first vertex.
    """
    shift = 0
    while True:
        common = -1
        union = once = twice = 0
        for f in facets:
            common &= f
            union |= f
            twice |= once & ~f
            once |= ~f
        if common:  # void, or a cone
            return {}
        if not union:
            return {shift - 1: 1}
        private = union & once & ~twice  # vertices missed by one facet only
        if not private:
            break
        meet = -1
        rest = []
        for f in facets:
            if private & ~f:
                meet &= f
                shift += 1
            else:
                rest.append(f)
        if not meet:
            return {} if rest else {shift - 2: 1}
        facets = _maximal_masks([f & meet for f in rest])
    facets = _strong_collapse(facets)
    n = len(facets)
    union = 0
    for f in facets:
        union |= f
    if union.bit_count() == n and all(f.bit_count() == n - 1 for f in facets):
        return {n - 2 + shift: 1}
    order = sorted(_bits(union), key=lambda v: sum(f >> v & 1 for f in facets), reverse=True)
    if 1 << len(order) <= MAX_COMPLEX_FACES:
        critical = _critical_cells(facets, order)
        if all(d + 1 not in critical for d in critical):
            return {d + shift: c for d, c in critical.items()}
    return {d + shift: r for d, r in _chain_ranks(_outside_star(facets, 1 << order[0]), p).items()}


def reduced_homology_ranks(
        complex_: SimplicialComplex, field: FieldSpec, precollapse: bool = True) -> list[int]:
    """Ranks of reduced homology over GF(p), listed for dimensions -1..dim.

    With ``precollapse`` the complex is first peeled and strong-collapsed
    as ``betti_table`` does (a known suspension of the same homotopy type,
    so the ranks shift by a known amount); without it the boundary matrices
    of the complex are eliminated as given.
    """
    if complex_.is_void:
        return []
    p = field.characteristic
    if precollapse:
        hom = _union_homology(list(complex_.facets), p)
    else:
        hom = _chain_ranks(complex_.faces_by_dim, p)
    return [hom.get(d, 0) for d in range(-1, complex_.dim + 1)]


# ---------------------------------------------------------------------------
# Betti tables

@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of R/I over GF(p).

    ``entries`` maps (homological index i, square-free multidegree mask) to
    a positive rank; regularity and projective dimension are read off it.
    The table and its entries are read-only, so a table cached by
    :func:`betti_table` stays intact.
    """

    field: FieldSpec
    alphabet: Alphabet
    entries: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        # The order of (i, _support_key(mask)) without a tuple per mask: of
        # two masks of one degree, the one holding the lowest variable where
        # they differ comes first, so the complements' bit strings, read from
        # the lowest bit up, ascend (one that stops short holds every
        # variable past its end, and sorts first as a prefix should).
        top = (1 << len(self.alphabet)) - 1
        object.__setattr__(self, "entries", MappingProxyType(dict(sorted(
            self.entries.items(), key=lambda kv: (
                kv[0][0], kv[0][1].bit_count(), bin(top ^ kv[0][1])[:1:-1])))))

    @property
    def regularity(self) -> int:
        return max(mask.bit_count() - i for i, mask in self.entries)

    @property
    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def coarse(self) -> dict[tuple[int, int], int]:
        """Graded table: (i, total degree j) -> rank."""
        out: dict[tuple[int, int], int] = {}
        for (i, mask), rank in self.entries.items():
            key = (i, mask.bit_count())
            out[key] = out.get(key, 0) + rank
        return out

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.characteristic,
            "entries": [
                {"i": i, "degree": list(self.alphabet.names_of(mask)), "rank": rank}
                for (i, mask), rank in self.entries.items()
            ],
            "reg": self.regularity,
            "pd": self.projective_dimension,
        }

    def render_text(self) -> str:
        """Betti triangle: column i, row j - i, as computer algebra systems print it."""
        coarse = self.coarse()
        pd = self.projective_dimension
        reg = self.regularity
        cols = range(pd + 1)
        totals = [sum(r for (i, _), r in coarse.items() if i == c) for c in cols]
        width = max(3, max(len(str(t)) for t in totals) + 1)
        head = "      " + "".join(str(c).rjust(width) for c in cols)
        lines = [head, "total:" + "".join(str(t).rjust(width) for t in totals)]
        for row in range(reg + 1):
            cells = []
            for c in cols:
                rank = coarse.get((c, c + row), 0)
                cells.append((str(rank) if rank else ".").rjust(width))
            lines.append(f"{row}:".rjust(6) + "".join(cells))
        return "\n".join(lines) + "\n"


def lcm_lattice(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """All lcms of nonempty generator subsets, deduplicated and sorted."""
    return tuple(Monomial(ideal.alphabet, m)
                 for m in sorted(_lattice(ideal).levels, key=_support_key))


class _Lattice(NamedTuple):
    """The lcm lattice of an ideal, three read-only maps keyed by element b
    and holding the elements in one order.

    ``levels[b]`` is the fewest generators whose lcm is b; ``divisors[b]``
    the generators dividing b, as a mask over the generator order, so its
    size is the most generators whose lcm is b; ``signs[b]`` the sum of
    (-1)^|S| over the generator subsets S with lcm b, which is the Moebius
    value mu(0, b) of the lattice with a bottom 0 added (Rota's crosscut
    theorem).
    """

    levels: Mapping[int, int]
    divisors: Mapping[int, int]
    signs: Mapping[int, int]


@lru_cache(maxsize=1)
def _lattice(ideal: MonomialIdeal) -> _Lattice:
    """Every lcm of a nonempty generator subset, with its level, divisors
    and signed subset count.

    The generators are folded in one at a time: joining g with each element
    so far reaches every new lcm, at one level more, so the work is at most
    mu times the lattice size instead of 2^mu.  Different elements can join
    to the same lcm, and then the smaller level is kept.  A subset S of the
    earlier generators with lcm m gives S + g with lcm m | g, one generator
    more, so the join adds m's divisors and g to those of m | g and takes
    m's signed count, as it stood before g, from that of m | g.  The
    divisors are complete: for b other than g and divisible by it, the lcm
    m of b's earlier divisors is an element, m | g = b, and m has them all.

    The last ideal's lattice is kept, read-only, so that the Taylor bound
    and the Betti tables of one ideal share a single build.
    """
    if ideal.num_generators > MAX_LATTICE_GENERATORS:
        raise CapExceededError(f"lcm lattice capped at {MAX_LATTICE_GENERATORS} generators")
    cells: dict[int, tuple[int, int, int]] = {}  # element: (level, divisors, sign)
    for j, g in enumerate(ideal.generator_masks):
        bit = 1 << j
        # the snapshot holds each element's values as they stood before g
        for m, (level, below, sign) in list(cells.items()):
            joined = m | g
            old = cells.get(joined)
            if old is None:
                cells[joined] = (level + 1, below | bit, -sign)
            else:
                k, d, f = old
                cells[joined] = (k if k <= level else level + 1, d | below | bit, f - sign)
        cells[g] = (1, bit, -1)  # a minimal generator is no lcm of earlier ones
    # one map per value, all with the keys of cells in the same order
    return _Lattice(*(MappingProxyType(dict(zip(cells, values))) for values in zip(*cells.values())))


def upper_koszul(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Divisibility complex of I at multidegree b.

    Faces are the variable subsets t of b whose complementary monomial
    (on b minus t) lies in I; equivalently the union of the simplices on
    b minus supp(g) over generators g dividing b, which are the facets
    returned; no face is built.  Void when the monomial on b is not in I.
    """
    if b.alphabet != ideal.alphabet:
        raise ValueError("degree over a different alphabet")
    local = {bit: i for i, bit in enumerate(_bits(b.mask))}
    facets = []
    for g in ideal.generator_masks:
        if g & ~b.mask == 0:
            mask = 0
            for bit in _bits(b.mask & ~g):
                mask |= 1 << local[bit]
            facets.append(mask)
    return SimplicialComplex(ideal.alphabet.names_of(b.mask), facets)


@lru_cache(maxsize=8192)
def betti_table(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> BettiTable:
    """Full multigraded Betti table of R/I via divisibility-complex homology.

    Degrees are enumerated over the lcm lattice only, where all Betti
    numbers of a monomial ideal live.  A degree whose Taylor strand holds
    subsets of its level and one more only is read off the lattice's signed
    count; the others take the homology of their divisibility complex.
    Tables are cached per ideal and field.
    """
    gens = ideal.generator_masks
    p = field_spec.characteristic
    lattice = _lattice(ideal)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for (b, k), divisors, sign in zip(  # BettiTable sorts the entries
            lattice.levels.items(), lattice.divisors.values(), lattice.signs.values()):
        if divisors.bit_count() <= k + 1:  # the Taylor strand at b has no other ranks
            if sign:
                entries[(k, b)] = -sign if k & 1 else sign
            continue
        # minimal generators make the facets b & ~g an antichain
        for d, rank in _union_homology([b & ~gens[j] for j in _bits(divisors)], p).items():
            entries[(d + 2, b)] = rank
    return BettiTable(field_spec, ideal.alphabet, entries)


def regularity(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> int:
    """Castelnuovo-Mumford regularity of R/I over GF(p)."""
    return betti_table(ideal, field_spec).regularity


def projective_dimension(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> int:
    return betti_table(ideal, field_spec).projective_dimension


# ---------------------------------------------------------------------------
# Taylor complex

@dataclass(frozen=True)
class TaylorComplex:
    """Taylor complex of an ideal: one basis element per generator subset.

    The basis element for subset F sits in homological degree |F| with
    multidegree lcm(F); the differential removes one generator at a time
    with alternating sign and a monomial coefficient.  The composition of
    consecutive differentials is verified to vanish at construction.
    """

    ideal: MonomialIdeal
    subset_lcms: tuple[int, ...] = field(compare=False)

    @property
    def num_generators(self) -> int:
        return self.ideal.num_generators

    def multidegree(self, subset: int) -> Monomial:
        return Monomial(self.ideal.alphabet, self.subset_lcms[subset])

    def differential(self, subset: int) -> list[tuple[int, int, int]]:
        """Terms (smaller subset, sign, monomial mask of the coefficient)."""
        out = []
        lcm_f = self.subset_lcms[subset]
        for k, b in enumerate(_bits(subset), start=1):
            smaller = subset ^ (1 << b)
            sign = -1 if k % 2 else 1
            out.append((smaller, sign, lcm_f & ~self.subset_lcms[smaller]))
        return out

    def verify_squares_zero(self) -> None:
        """Symbolically compose consecutive differentials; must cancel."""
        for s in range(1 << self.num_generators):
            if s.bit_count() < 2:
                continue
            acc: dict[tuple[int, int], int] = {}
            for mid, sign1, q1 in self.differential(s):
                for target, sign2, q2 in self.differential(mid):
                    key = (target, q1 | q2)
                    acc[key] = acc.get(key, 0) + sign1 * sign2
            if any(acc.values()):
                raise AssertionError(f"differential does not square to zero at {s:#b}")


def taylor_complex(ideal: MonomialIdeal) -> TaylorComplex:
    complex_ = TaylorComplex(ideal, tuple(_subset_lcms(ideal)))
    complex_.verify_squares_zero()
    return complex_


def _subset_lcms(ideal: MonomialIdeal) -> list[int]:
    """The lcm of every generator subset, indexed by the subset's bit mask."""
    gens = ideal.generator_masks
    if len(gens) > MAX_TAYLOR_GENERATORS:
        raise CapExceededError(f"Taylor complex capped at {MAX_TAYLOR_GENERATORS} generators")
    lcms = [0] * (1 << len(gens))
    for s in range(1, 1 << len(gens)):
        low = s & -s
        lcms[s] = lcms[s ^ low] | gens[low.bit_length() - 1]
    return lcms


def taylor_strand_betti(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> BettiTable:
    """Betti table from the multidegree strands of the Taylor complex.

    At each multidegree b the strand has one basis element per generator
    subset with lcm equal to b; a differential entry survives (as +1 or
    -1) exactly when dropping the generator keeps the lcm, and homology of
    the strand gives the Betti numbers at b.  It shares only the rank
    kernel with :func:`betti_table`, which it must match entry for entry.
    """
    p = field_spec.characteristic
    lcms = _subset_lcms(ideal)
    strands: dict[int, dict[int, list[int]]] = {}
    for s, m in enumerate(lcms):
        strands.setdefault(m, {}).setdefault(s.bit_count(), []).append(s)
    entries = {(i, b): rank for b, layers in strands.items()
               for i, rank in _chain_ranks(layers, p).items()}
    return BettiTable(field_spec, ideal.alphabet, entries)


def is_taylor_minimal(ideal: MonomialIdeal) -> bool:
    """True iff no Taylor differential entry is a unit.

    That is the case iff all 2^mu generator subsets have distinct lcms
    (the empty subset's lcm 1 differs from every other).  A unit entry
    drops some j from a subset S without changing the lcm, so S and S
    minus j agree.  Conversely, let F != G have the same lcm L and, after
    swapping them if needed, let j lie in F but not in G.  Then S = F | G
    and S minus j both contain G and lie in S, so both have lcm L: the
    entry of S -> S minus j is a unit.
    """
    lcms = _subset_lcms(ideal)
    return len(set(lcms)) == len(lcms)
