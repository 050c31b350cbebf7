"""Labeled hypergraphs of square-free monomial ideals.

Vertices are generator indices 1..mu; every variable labels the edge made
of the generators it divides.  Distinct label images form the edge set,
and the number of labels (counted with multiplicity) together with the
vertex count drives all the regularity formulas in :mod:`hyperreg.bounds`.

A hypergraph is stored as its column masks: each label's image as a mask,
bit k standing for the k-th smallest vertex.  The distinct masks are the
edges, each with its number of labels; every predicate and bound reads them
by bit operations.  :func:`build_hypergraph` takes the columns as the
transpose of the generator masks, by the ``_transpose`` of
:mod:`hyperreg.monomials` that the Taylor bound and the oracle share, with
no names in between.  The frozenset views ``labels``, ``edges`` and
``edge_labels`` are built on first access and kept, for output and the
corpus.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping

from .monomials import (
    Alphabet, Monomial, MonomialIdeal, _bits, _minimal_masks, _transpose, minimalize)


class NotSeparatedError(ValueError):
    """Hypergraph fails separation; ``witness`` is the offending vertex pair."""

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        v, w = witness
        super().__init__(f"no edge contains vertex {v} without vertex {w}")


class LabeledHypergraph:
    """Finite vertex set plus a variable -> vertex-subset labeling map."""

    def __init__(self, vertices: Iterable[int], labeling: Mapping[str, Iterable[int]]):
        vertices = tuple(sorted(set(vertices)))
        bit = {v: 1 << k for k, v in enumerate(vertices)}
        columns: dict[str, int] = {}
        for name in sorted(labeling):
            mask = 0
            for v in labeling[name]:
                if v not in bit:
                    raise ValueError(f"label {name!r} maps outside the vertex set")
                mask |= bit[v]
            if not mask:
                raise ValueError(f"label {name!r} has empty image")
            columns[name] = mask
        if not columns:
            raise ValueError("hypergraph needs at least one label")
        self._init(vertices, columns)

    def _init(self, vertices: tuple[int, ...], columns: dict[str, int]) -> None:
        """Set the vertices (sorted), the nonzero column masks (in name
        order), and the edges with their multiplicities, the open vertices
        and the adjacency masks derived from them; nothing is checked."""
        self.vertices: tuple[int, ...] = vertices
        self.columns: dict[str, int] = columns  # name -> mask of its image
        self.edge_masks: Counter[int] = Counter(columns.values())  # mask -> multiplicity
        adjacency = [0] * len(vertices)
        for e in self.edge_masks:
            rest = e
            while rest:
                low = rest & -rest
                adjacency[low.bit_length() - 1] |= e
                rest ^= low
        closed = sum(e for e in self.edge_masks if not e & (e - 1))  # the singleton edges
        self.open_mask: int = ((1 << len(vertices)) - 1) & ~closed
        self.adjacency: tuple[int, ...] = tuple(a & ~(1 << k) for k, a in enumerate(adjacency))

    @cached_property
    def labels(self) -> dict[str, frozenset[int]]:
        return {name: self.vertex_set(mask) for name, mask in self.columns.items()}

    @cached_property
    def edge_labels(self) -> dict[frozenset[int], tuple[str, ...]]:
        """Each edge's labels, edges ordered by size, then by sorted members."""
        order = sorted(self.edge_masks, key=lambda e: (e.bit_count(), list(_bits(e))))
        return {self.vertex_set(e): tuple(n for n, m in self.columns.items() if m == e)
                for e in order}

    @cached_property
    def edges(self) -> tuple[frozenset[int], ...]:
        return tuple(self.edge_labels)

    @property
    def label_count(self) -> int:
        """Number of labels |X|, i.e. edges counted with multiplicity."""
        return len(self.columns)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def multiplicity(self, edge: frozenset[int]) -> int:
        return len(self.edge_labels[edge])

    def vertex_set(self, mask: int) -> frozenset[int]:
        """The vertices whose bits are set in ``mask``."""
        return frozenset(self.vertices[k] for k in _bits(mask))

    def vertex_labels(self, v: int) -> tuple[str, ...]:
        return tuple(name for name, image in self.labels.items() if v in image)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LabeledHypergraph)
                and self.vertices == other.vertices
                and self.columns == other.columns)

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(sorted(self.labels.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}->{sorted(img)}" for n, img in self.labels.items())
        return f"LabeledHypergraph({list(self.vertices)}, {{{body}}})"


def build_hypergraph(ideal: MonomialIdeal) -> LabeledHypergraph:
    """Hypergraph of an ideal: vertex j for generator j, edge per variable.

    The columns are the transpose of the generator masks: one per variable
    some generator holds, in alphabet order, which is name order, as the
    constructor keeps them.
    """
    hypergraph = LabeledHypergraph.__new__(LabeledHypergraph)
    hypergraph._init(tuple(range(1, ideal.num_generators + 1)),
                     dict(zip(ideal.alphabet.names_of(ideal.variables_used),
                              _transpose(ideal.generator_masks))))
    return hypergraph


def ideal_of(hypergraph: LabeledHypergraph, alphabet: Alphabet) -> MonomialIdeal:
    """Recover the ideal: one generator per vertex, the product of its labels.

    Requires a separated hypergraph (this is what makes the generators
    minimal); otherwise raises :class:`NotSeparatedError` with a witness.
    Separation also labels every vertex: an unlabeled one lies in no edge,
    so every other vertex is in the meet of the edges through it, and a
    lone vertex is in the nonempty image of some label.
    """
    witness = separation_witness(hypergraph)
    if witness is not None:
        raise NotSeparatedError(witness)
    return minimalize(Monomial.of(alphabet, hypergraph.vertex_labels(v))
                      for v in hypergraph.vertices)


def separation_witness(hypergraph: LabeledHypergraph) -> tuple[int, int] | None:
    """First ordered pair (v, w) such that no edge contains v but not w,
    that is, w lies in the meet of the edges through v."""
    vertices = hypergraph.vertices
    for k, v in enumerate(vertices):
        meet = ((1 << len(vertices)) - 1) ^ (1 << k)
        for e in hypergraph.edge_masks:
            if e >> k & 1:
                meet &= e
        if meet:
            return v, vertices[(meet & -meet).bit_length() - 1]
    return None


def is_separated(hypergraph: LabeledHypergraph) -> bool:
    return separation_witness(hypergraph) is None


def closed_vertices(hypergraph: LabeledHypergraph) -> frozenset[int]:
    """Vertices whose singleton is an edge."""
    return hypergraph.vertex_set(((1 << hypergraph.num_vertices) - 1) & ~hypergraph.open_mask)


def open_vertices(hypergraph: LabeledHypergraph) -> frozenset[int]:
    return hypergraph.vertex_set(hypergraph.open_mask)


def neighbors(hypergraph: LabeledHypergraph, v: int) -> frozenset[int]:
    """Vertices sharing some edge with v."""
    if v not in hypergraph.vertices:
        raise ValueError(f"unknown vertex {v}")
    return hypergraph.vertex_set(hypergraph.adjacency[hypergraph.vertices.index(v)])


def has_isolated_open_vertices(hypergraph: LabeledHypergraph) -> bool:
    """True iff no two open vertices are adjacent (vacuous when all closed)."""
    opens = hypergraph.open_mask
    return not any(hypergraph.adjacency[k] & opens for k in _bits(opens))


def simple_edges(hypergraph: LabeledHypergraph) -> frozenset[frozenset[int]]:
    """Edges of size >= 2 with no proper nonempty subedge."""
    return frozenset(hypergraph.vertex_set(e) for e in _simple_masks(hypergraph))


def _simple_masks(hypergraph: LabeledHypergraph) -> list[int]:
    """The minimal edges, as masks, leaving out the singletons."""
    return [e for e in _minimal_masks(hypergraph.edge_masks) if e & (e - 1)]


def has_isolated_simple_edges(hypergraph: LabeledHypergraph) -> bool:
    """True iff every open vertex lies in exactly one simple edge (vacuously
    true when there is no open vertex)."""
    return _each_open_in_one(hypergraph, _simple_masks(hypergraph))


def _each_open_in_one(hypergraph: LabeledHypergraph, edges: list[int]) -> bool:
    """True iff every open vertex lies in exactly one of the edge masks."""
    once = twice = 0
    for e in edges:
        twice |= once & e
        once |= e
    opens = hypergraph.open_mask
    return not opens & ~once and not opens & twice


def is_saturated(hypergraph: LabeledHypergraph) -> bool:
    """Every vertex closed."""
    return not hypergraph.open_mask


def dimension(hypergraph: LabeledHypergraph) -> int:
    """Max edge size minus one."""
    return max(e.bit_count() for e in hypergraph.edge_masks) - 1


def to_json_dict(hypergraph: LabeledHypergraph) -> dict:
    """JSON form: vertices, labels and edges with multiplicities."""
    return {
        "vertices": list(hypergraph.vertices),
        "labels": {name: sorted(image) for name, image in hypergraph.labels.items()},
        "edges": [{"members": sorted(e), "multiplicity": len(names), "labels": list(names)}
                  for e, names in hypergraph.edge_labels.items()],
    }


def render(hypergraph: LabeledHypergraph, fmt: str) -> str:
    """Deterministic DOT or TikZ rendering of the hypergraph."""
    if fmt == "dot":
        return render_dot(hypergraph)
    if fmt == "tikz":
        return render_tikz(hypergraph)
    raise ValueError(f"unsupported render format {fmt!r}")


def _vertex_caption(hypergraph: LabeledHypergraph, v: int) -> str:
    names = hypergraph.edge_labels.get(frozenset((v,)))
    return f"v{v}" + ("\\n" + ",".join(names) if names else "")


def render_dot(hypergraph: LabeledHypergraph) -> str:
    """DOT text: closed vertices filled, open hollow, hubs for big edges."""
    closed = closed_vertices(hypergraph)
    lines = ["graph hypergraph {", "  node [shape=circle];"]
    for v in hypergraph.vertices:
        style = "filled" if v in closed else "solid"
        lines.append(f'  v{v} [label="{_vertex_caption(hypergraph, v)}", style={style}];')
    hub = 0
    for e in hypergraph.edges:
        label = ",".join(hypergraph.edge_labels[e])
        members = sorted(e)
        if len(e) == 2:
            lines.append(f'  v{members[0]} -- v{members[1]} [label="{label}"];')
        elif len(e) >= 3:
            hub += 1
            lines.append(f'  h{hub} [label="{label}", shape=point];')
            lines.extend(f"  h{hub} -- v{v};" for v in members)
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_tikz(hypergraph: LabeledHypergraph) -> str:
    """Standalone TikZ picture with vertices on a fixed circle."""
    closed = closed_vertices(hypergraph)
    n = hypergraph.num_vertices
    pos = {}
    for k, v in enumerate(hypergraph.vertices):
        angle = 2.0 * math.pi * k / n
        pos[v] = (round(3.0 * math.cos(angle), 4), round(3.0 * math.sin(angle), 4))
    lines = [
        "\\documentclass[tikz]{standalone}",
        "\\begin{document}",
        "\\begin{tikzpicture}",
    ]
    for v in hypergraph.vertices:
        fill = "fill=black" if v in closed else "fill=white"
        x, y = pos[v]
        caption = _vertex_caption(hypergraph, v).replace("\\n", " ")
        lines.append(
            f"  \\node[circle,draw,{fill},inner sep=2pt,label=above:{{{caption}}}]"
            f" (v{v}) at ({x},{y}) {{}};")
    hub = 0
    for e in hypergraph.edges:
        label = ",".join(hypergraph.edge_labels[e])
        members = sorted(e)
        if len(e) == 2:
            lines.append(f"  \\draw (v{members[0]}) -- node[above] {{{label}}} (v{members[1]});")
        elif len(e) >= 3:
            hub += 1
            cx = round(sum(pos[v][0] for v in members) / len(members), 4)
            cy = round(sum(pos[v][1] for v in members) / len(members), 4)
            lines.append(
                f"  \\node[circle,draw,fill=gray,inner sep=1pt,"
                f"label=below:{{{label}}}] (h{hub}) at ({cx},{cy}) {{}};")
            lines.extend(f"  \\draw[dashed] (h{hub}) -- (v{v});" for v in members)
    lines.extend(["\\end{tikzpicture}", "\\end{document}"])
    return "\n".join(lines) + "\n"
