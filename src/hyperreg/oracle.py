"""Exact multigraded Betti numbers of square-free monomial ideals over GF(p).

Two independent routes compute the same table for R/I:

* :func:`betti_table` places, at every lcm-lattice degree b, the divisibility
  complex whose faces are the variable subsets t of b with the monomial on
  b minus t lying in I, and reads Betti numbers off its reduced homology.
* :func:`taylor_strand_betti` restricts the Taylor complex to each
  multidegree, reducing differential entries to scalars, and takes homology
  of the resulting strands.

Both routes build their boundary rows the same way and share one exact
rank kernel, which eliminates sparse ``{column: residue}`` rows over GF(p)
for every p and also ranks the Morse differentials below.  A boundary row
has at most |b| nonzero entries, all of them +1 or -1.  Ranks are taken
from the top dimension down with clearing: a face that the differential
above pivots on gets no row of its own.

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

At such a hard degree every nonzero beta_{i,b} has k <= i <= |D| - 1.  The
strand's cells are the subsets of D of sizes k to |D|, so i >= k.  Some
subset of k generators has lcm b and misses a j in D, so D minus j has
lcm b too: the top cell D has a nonzero boundary, with an entry +1 or -1,
and carries no homology over any field.  Hence b can raise the regularity
to |b| - k at most and the projective dimension to |D| - 1 at most, and
:func:`regularity` and :func:`projective_dimension` take homology only at
the hard degrees where one of the two exceeds what the lattice and the
degrees taken so far give.

Each divisibility complex is first peeled with bit operations on its
facets.  By the nerve theorem the complex has the homotopy type of the
nerve of its facets, and the facets that miss a vertex all the others hold
split off as a suspension (Gasharov-Peeva-Welker, *The lcm-lattice in
monomial resolutions*; Barmak-Minian, *Strong homotopy types, nerves and
collapses*).  When every generator dividing b has a variable of b that no
other divisor has, that settles the degree: beta_{k,b} = 1 for the k
divisors, as in the Taylor complex, and no other rank there (betti_table
reads such degrees off the lattice first).  Cones and a peel that covers
the complex give no homology; the boundary of a simplex peels to a sphere.

Past the peel, element matchings pair a face with the face one element
larger, for each element in turn.  They are acyclic (Jonsson, *Simplicial
Complexes of Graphs*) and every incidence is +1 or -1, so the unmatched,
critical cells carry a Morse complex with the same integral homology
(Forman, *Morse theory for cell complexes*).  Its differential between
critical cells of adjacent dimensions is read off the gradient flow, which
visits each face at most once, and its ranks are taken mod p, so torsion is
exact.  The faces are one bit per element subset, and the elements are the
core's smaller side: its facets, on its nerve, where vertex i is facet i
and the faces are generated by the sets of facets holding each vertex of
the union, the transpose of the facet masks, or else its vertices, on its
own faces, the transpose of those holder sets.  A lattice degree has at
most ``MAX_LATTICE_GENERATORS`` = 20 divisors, hence facets, so every core
of :func:`betti_table` is matched on at most 20 elements, a 2^20-bit int.
Only a complex given directly with more than 20 facets and more than 20
vertices reaches the boundary matrices of all its faces, capped at 2^16
faces; so does :func:`_chain_ranks` over ``faces_by_dim``, the
reference that the tests and the corpus's spot check compare against.

The lcm lattice is built as a closure, one generator at a time, into one
read-only map from each element to its level, divisors and signed count;
:func:`betti_table`, the regularity and projective-dimension scan and
:func:`lcm_lattice` each build it and read it in place.  Nothing of an
ideal is kept between calls.  Only the Taylor-complex routes scan all 2^mu
generator subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from types import MappingProxyType
from typing import AbstractSet, Iterable, Mapping, Sequence

from .monomials import (
    Alphabet, CapExceededError, Monomial, MonomialIdeal, _bits, _canonical_key, _transpose)

MAX_LATTICE_GENERATORS = 20
MAX_TAYLOR_GENERATORS = 16
MAX_COMPLEX_FACES = 1 << 16


@dataclass(frozen=True)
class FieldSpec:
    """Prime field GF(p) used for all homology ranks."""

    characteristic: int

    def __post_init__(self) -> None:
        p = self.characteristic
        if not 2 <= p < (1 << 16) or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"characteristic must be a prime below 2^16, got {p}")


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


# ---------------------------------------------------------------------------
# GF(p) ranks

def _rank_sparse(rows: Iterable[dict[int, int]], p: int) -> AbstractSet[int]:
    """Pivot columns over GF(p), as many as the rank, of rows given as
    ``{column: nonzero residue}``: the one elimination routine of the oracle.

    Each row is reduced by the pivots on its highest column until it is
    zero or leads on a column with no pivot yet, and is stored there scaled
    to a leading 1.  The pivot columns are then the highest columns of the
    nonzero vectors the rows span, whatever their order.  The rows are
    reduced in place.
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
                if v not in index:
                    raise ValueError(f"face vertex {v!r} lies outside the vertex set")
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
    # facet-side dual of _minimal_masks: hot in every peel round, so no canonical order
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in kept:
            if m | k == k:
                break
        else:
            kept.append(m)
    return kept


def _faces_of_facets(facets: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Every face of the given facets, as sorted masks keyed by dimension,
    capped at ``MAX_COMPLEX_FACES``."""
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
    grouped: dict[int, list[int]] = {}
    for m in faces:
        grouped.setdefault(m.bit_count() - 1, []).append(m)
    return {d: tuple(sorted(layer)) for d, layer in sorted(grouped.items())}


@lru_cache(maxsize=None)
def _subsets_holding(n: int) -> tuple[int, ...]:
    """For each j < n, the 2^n-bit mask of the subsets of range(n) holding j."""
    masks: tuple[int, ...] = ()
    for j in range(n):  # from the masks over range(j) to those over range(j + 1)
        half = 1 << j
        masks = tuple(h | h << half for h in masks) + (((1 << half) - 1) << half,)
    return masks


def _element_matchings(tops: Iterable[int], n: int) -> tuple[int, list[int]]:
    """Element matchings, for j = 0 .. n - 1 one after another, on the
    downward closure of the subsets ``tops`` of range(n).

    The faces, the empty one included, are the set bits of one 2^n-bit int.
    The matching for j pairs each unmatched face s missing j with s + j when
    that is unmatched too.  Returns the critical (unmatched) faces, as such
    an int, and for each j the mask of the faces s it paired with s + j.
    """
    has = _subsets_holding(n)
    cells = 0
    for t in tops:
        cells |= 1 << t
    for j, h in enumerate(has):  # downward closure
        cells |= (cells & h) >> (1 << j)
    steps = []
    for j, h in enumerate(has):
        low = cells & ~h & (cells & h) >> (1 << j)
        cells &= ~(low | low << (1 << j))
        steps.append(low)
    return cells, steps


def _morse_flow(face: int, critical: bytes, steps: list[bytes],
                flows: dict[int, dict[int, int]]) -> dict[int, int]:
    """The critical cells, with integer coefficients, that the gradient flow
    of the element matchings ``steps`` carries ``face`` to.

    ``critical`` and ``steps`` are the masks of :func:`_element_matchings` as
    little-endian bytes, so testing a face reads one byte at every n.  A
    critical face flows to itself, and a face paired with one below it to
    nothing.  A face s paired by the matching for j with t = s + j flows as
    -[t : s] times the sum of [t : r] r over the other faces r of t, where
    [t : t - i] is -1 to the number of elements of t below i.  The matchings
    are acyclic, so every path ends; each face is computed once, memoized in
    ``flows``, from an explicit stack instead of recursion.
    """
    stack = [face]
    while stack:
        s = stack[-1]
        if s in flows:
            stack.pop()
            continue
        byte, bit = s >> 3, 1 << (s & 7)
        j = next((j for j, low in enumerate(steps) if low[byte] & bit), -1)
        if j < 0:  # critical, or paired with a face below it
            flows[s] = {s: 1} if critical[byte] & bit else {}
        else:
            top = s | 1 << j
            pending = [top ^ 1 << i for i in _bits(s) if top ^ 1 << i not in flows]
            if pending:
                stack += pending
                continue
            # -[t : s] [t : t - i], the sign of -1 to the elements of t below j or i
            chain: dict[int, int] = {}
            for i in _bits(s):
                a = 1 if (top & ((1 << j) - 1 ^ (1 << i) - 1)).bit_count() & 1 else -1
                for cell, c in flows[top ^ 1 << i].items():
                    chain[cell] = chain.get(cell, 0) + a * c
            flows[s] = {cell: c for cell, c in chain.items() if c}
        stack.pop()
    return flows[face]


def _morse_homology(tops: Iterable[int], n: int, p: int) -> dict[int, int]:
    """Reduced homology ranks over GF(p) of the downward closure of the
    subsets ``tops`` of range(n), from its element matchings.

    The critical cells carry a Morse complex with the same integral homology
    (Forman, *Morse theory for cell complexes*).  Its differential between
    the critical cells of adjacent dimensions is read off the gradient flow
    and reduced mod p; where no two adjacent dimensions hold critical cells,
    there is none, and their counts are the ranks.
    """
    critical, steps = _element_matchings(tops, n)
    cells: dict[int, list[int]] = {}
    for s in _bits(critical):
        cells.setdefault(s.bit_count() - 1, []).append(s)
    flows: dict[int, dict[int, int]] = {}
    views: tuple = ()  # critical and steps as bytes, built for the first differential
    ranks = {}
    for d, layer in cells.items():
        if d - 1 in cells:
            if not views:
                size = (1 << n >> 3) + 1
                views = (critical.to_bytes(size, "little"),
                         [low.to_bytes(size, "little") for low in steps])
            rows = []
            for s in layer:
                row: dict[int, int] = {}
                for k, i in enumerate(_bits(s)):
                    for cell, c in _morse_flow(s ^ 1 << i, *views, flows).items():
                        row[cell] = row.get(cell, 0) + (-c if k & 1 else c)
                rows.append({cell: c % p for cell, c in row.items() if c % p})
            ranks[d] = len(_rank_sparse(rows, p))
    homology = {}
    for d, layer in cells.items():
        r = len(layer) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if r:
            homology[d] = r
    return homology


def _chain_ranks(layers: Mapping[int, Sequence[int]], p: int) -> dict[int, int]:
    """Homology ranks over GF(p) of the chain complex with basis ``layers[d]``.

    The differential sends a mask to the alternating sum of the masks one
    bit smaller, keeping those present in ``layers[d - 1]``; each row goes to
    :func:`_rank_sparse` as ``{column: 1 or p - 1}``, the term dropping the
    lowest bit being +1.  On the faces of a downward-closed complex, keyed
    by dimension, this is the reduced simplicial chain complex; on the faces
    of a complex outside a subcomplex, the relative chain complex, since the
    dropped terms are those of the subcomplex; on a Taylor strand, keyed by
    subset size, it is the strand's differential.

    Ranks are taken from the top down, and a d-mask that is a pivot column
    of the differential on ``layers[d + 1]`` gets no row (clearing): the
    reduced row leading there is a boundary, whose boundary is zero, so the
    mask's row is a combination of the rows before it in ``layers[d]``.
    This needs the rows of one differential and the columns of the next in
    the same ``layers[d]`` order.
    """
    pivots: dict[int, AbstractSet[int]] = {}
    for d in sorted(layers, reverse=True):
        column = {m: k for k, m in enumerate(layers.get(d - 1, ()))}
        if not column:
            continue
        cleared = pivots.get(d + 1, ())
        rows = []
        for k, m in enumerate(layers[d]):
            if k in cleared:
                continue
            row = {}
            sign = 1  # flips between 1 and p - 1
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                c = column.get(m ^ low)
                if c is not None:
                    row[c] = sign
                sign = p - sign
            rows.append(row)
        pivots[d] = _rank_sparse(rows, p)
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

    Past the peel, the core of m facets on n vertices is settled by element
    matchings on its smaller side, which the lattice's generator cap bounds.
    Both sides come from one incidence transpose: the holders, for each
    vertex the set of facets holding it, ordered by falling facet count,
    the lowest vertex on a tie.  When m <= n and m <= ``MAX_LATTICE_GENERATORS``
    the holders generate the nerve, whose vertex i is facet i, in the order
    the peel leaves them; otherwise, when n <= ``MAX_LATTICE_GENERATORS``,
    their transpose is the facets on the vertices in the holders' order.
    A lattice degree has at most that many divisors, hence facets, so only
    a complex given directly can have both sides larger; it goes through
    the chain complex of all its faces.
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
    holders = sorted(_transpose(facets), key=int.bit_count, reverse=True)
    n = len(holders)
    if len(facets) <= min(n, MAX_LATTICE_GENERATORS):
        homology = _morse_homology(holders, len(facets), p)
    elif n <= MAX_LATTICE_GENERATORS:
        homology = _morse_homology(_transpose(holders), n, p)
    else:
        homology = _chain_ranks(_faces_of_facets(facets), p)
    return {d + shift: r for d, r in homology.items()}


def reduced_homology_ranks(complex_: SimplicialComplex, field: FieldSpec) -> list[int]:
    """Ranks of reduced homology over GF(p), listed for dimensions -1..dim.

    The route of ``betti_table``: the complex is peeled (a known suspension
    of the same homotopy type, so the ranks shift by a known amount), and
    the core is settled by element matchings on its nerve or its own faces,
    whichever side is smaller, and their Morse differential; a core with
    more than 20 of both takes the chain complex of its faces.
    """
    if complex_.is_void:
        return []
    hom = _union_homology(list(complex_.facets), field.characteristic)
    return [hom.get(d, 0) for d in range(-1, complex_.dim + 1)]


# ---------------------------------------------------------------------------
# Betti tables

@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of R/I over GF(p).

    ``entries`` maps (homological index i, square-free multidegree mask) to
    a positive rank; regularity and projective dimension are read off it.
    The table and its entries are read-only: a table is a value.
    """

    field: FieldSpec
    alphabet: Alphabet
    entries: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        # The order of (i, _canonical_key(mask)), written inline because a
        # call per entry costs more than the sort: of two masks of one
        # degree, the one holding the lowest variable where they differ
        # comes first, so the complements' bit strings, read from the lowest
        # bit up, ascend (one that stops short holds every variable past its
        # end, and sorts first as a prefix should).
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
                 for m in sorted(_lattice(ideal), key=_canonical_key))


def _lattice(ideal: MonomialIdeal) -> Mapping[int, tuple[int, int, int]]:
    """The lcm lattice of an ideal: a read-only map from each lcm b of a
    nonempty generator subset to ``(level, divisors, sign)``.

    The level is the fewest generators whose lcm is b; the divisors are the
    generators dividing b, as a mask over the generator order, so their
    number is the most generators whose lcm is b; the sign is the sum of
    (-1)^|S| over the generator subsets S with lcm b, which is the Moebius
    value mu(0, b) of the lattice with a bottom 0 added (Rota's crosscut
    theorem).

    The generators are folded in one at a time: joining g with each element
    so far reaches every new lcm, at one level more, so the work is at most
    mu times the lattice size instead of 2^mu.  Different elements can join
    to the same lcm, and then the smaller level is kept.  A subset S of the
    earlier generators with lcm m gives S + g with lcm m | g, one generator
    more, so the join adds m's divisors and g to those of m | g and takes
    m's signed count, as it stood before g, from that of m | g.  The
    divisors are complete: for b other than g and divisible by it, the lcm
    m of b's earlier divisors is an element, m | g = b, and m has them all.
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
    return MappingProxyType(cells)


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


def betti_table(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> BettiTable:
    """Full multigraded Betti table of R/I via divisibility-complex homology.

    Degrees are enumerated over the lcm lattice only, where all Betti
    numbers of a monomial ideal live.  A degree whose Taylor strand holds
    subsets of its level and one more only is read off the lattice's signed
    count; the others take the homology of their divisibility complex.
    Each call computes its table and keeps nothing.
    """
    gens = ideal.generator_masks
    p = field_spec.characteristic
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for b, (k, divisors, sign) in _lattice(ideal).items():  # BettiTable sorts the entries
        if divisors.bit_count() <= k + 1:  # the Taylor strand at b has no other ranks
            if sign:
                entries[(k, b)] = -sign if k & 1 else sign
            continue
        for d, rank in _union_homology(_degree_facets(b, divisors, gens), p).items():
            entries[(d + 2, b)] = rank
    return BettiTable(field_spec, ideal.alphabet, entries)


def _degree_facets(b: int, divisors: int, gens: Sequence[int]) -> list[int]:
    """The facets b minus g of the divisibility complex at b, one per divisor
    g; minimal generators make them an antichain."""
    return [b & ~gens[j] for j in _bits(divisors)]


def _extremes(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> tuple[int, int]:
    """``(regularity, projective dimension)`` of R/I over GF(p), as
    :func:`betti_table` gives them, with homology at fewer degrees.

    The settled degrees are read off the lattice as there.  The others are
    visited by falling |b| - k, and skipped where neither |b| - k nor |D| - 1,
    the most they can raise the two to, exceeds the values so far.
    """
    gens = ideal.generator_masks
    p = field_spec.characteristic
    reg = pd = 0  # the entry (0, 0)
    hard = []
    for b, (k, divisors, sign) in _lattice(ideal).items():
        if divisors.bit_count() > k + 1:
            hard.append((b.bit_count() - k, divisors.bit_count() - 1, b, divisors))
        elif sign:
            reg = max(reg, b.bit_count() - k)
            pd = max(pd, k)
    hard.sort(reverse=True)
    for high, deepest, b, divisors in hard:
        if high <= reg and deepest <= pd:
            continue
        for d in _union_homology(_degree_facets(b, divisors, gens), p):
            reg = max(reg, b.bit_count() - d - 2)
            pd = max(pd, d + 2)
    return reg, pd


def regularity(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> int:
    """Castelnuovo-Mumford regularity of R/I over GF(p), by :func:`_extremes`."""
    return _extremes(ideal, field_spec)[0]


def projective_dimension(ideal: MonomialIdeal, field_spec: FieldSpec = GF2) -> int:
    """Projective dimension of R/I over GF(p), by :func:`_extremes`."""
    return _extremes(ideal, field_spec)[1]


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
        terms = [self.differential(s) for s in range(1 << self.num_generators)]
        for s, outer in enumerate(terms):
            if s.bit_count() < 2:
                continue
            acc: dict[tuple[int, int], int] = {}
            for mid, sign1, q1 in outer:
                for target, sign2, q2 in terms[mid]:
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
