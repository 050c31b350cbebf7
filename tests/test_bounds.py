import ast
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _ref_min_vertex_cover,
    counting_fill_nodes,
    greedy_matching,
    ideals,
    labeled_hypergraphs,
    max_degree_greedy_cover,
    ref_matching_lower_bound,
    ref_min_fill_number,
    subset_scan_levels,
    word_ideal,
)
from hyperreg import bounds
from hyperreg.bounds import (
    ALL_METHODS,
    best_bounds,
    fill_upper_bound,
    iso_upper_bound,
    matching_lower_bound,
    matching_regularity,
    min_fill_number,
    saturated_projective_dimension,
    saturated_regularity,
    simple_edge_regularity,
    taylor_regularity_bound,
)
from hyperreg.hypergraph import (
    LabeledHypergraph,
    _simple_masks,
    build_hypergraph,
    dimension,
    neighbors,
    open_vertices,
)
from hyperreg.monomials import parse_ideal
from hyperreg.oracle import GF2, CapExceededError, _lattice, regularity
from hyperreg.randgen import max_antichain, random_ideal


def hyp(words):
    return build_hypergraph(word_ideal(words))


def exhaustive_fill_number(hypergraph):
    """Independent oracle: try every subset of open vertices."""
    opens = sorted(open_vertices(hypergraph))
    adjacent = {v: neighbors(hypergraph, v) & set(opens) for v in opens}
    for size in range(len(opens) + 1):
        for chosen in combinations(opens, size):
            remaining = [v for v in opens if v not in chosen]
            if not any(u in adjacent[v] for v in remaining for u in remaining):
                return size
    raise AssertionError("closing every open vertex always works")


class TestSaturatedFormula:
    def test_eleven_variable_example(self):
        h = hyp("efhk aefgij bchij dghij")
        assert saturated_regularity(h) == 7
        assert saturated_projective_dimension(h) == 4

    def test_two_coprime_linear_forms(self):
        assert saturated_regularity(hyp("a b")) == 0
        assert saturated_projective_dimension(hyp("a b")) == 2

    def test_two_disjoint_quadrics(self):
        assert saturated_regularity(hyp("ab cd")) == 2

    def test_rejects_unsaturated(self):
        with pytest.raises(ValueError):
            saturated_regularity(hyp("ab ac bc"))


class TestTaylorBound:
    def test_disjoint_pair(self):
        assert taylor_regularity_bound(word_ideal("ab cd")) == 2

    def test_principal(self):
        assert taylor_regularity_bound(word_ideal("a")) == 0

    def test_triangle(self):
        assert taylor_regularity_bound(word_ideal("ab ac bc")) == 1

    def test_cap(self):
        with pytest.raises(CapExceededError):
            taylor_regularity_bound(word_ideal(" ".join("abcdefghijklmnopqrstu")))

    def test_collision_of_levels(self):
        # three generators already have the lcm of all four: level 3, not 4
        ideal = parse_ideal("x03\nx01 x02 x04\nx01 x04 x06\nx00 x04 x05 x06")
        assert taylor_regularity_bound(ideal) == 4

    @given(ideals())
    @settings(max_examples=300, deadline=None)
    def test_matches_subset_scan(self, ideal):
        levels = subset_scan_levels(ideal)
        assert taylor_regularity_bound(ideal) == max(m.bit_count() - k for m, k in levels.items())


def transversal_number(hypergraph):
    """Reference tau(H): the fewest vertices meeting every edge, by trying
    every vertex subset in order of size."""
    n = hypergraph.num_vertices
    for size in range(n + 1):
        for chosen in combinations(range(n), size):
            mask = sum(1 << k for k in chosen)
            if all(e & mask for e in hypergraph.edge_masks):
                return size
    raise AssertionError("the whole vertex set meets every edge")


def lattice_taylor_value(ideal):
    """The Taylor bound as the lcm lattice gives it: max of |m| - level."""
    return max(m.bit_count() - level for m, (level, _, _) in _lattice(ideal).items())


def counted_cover_search(monkeypatch):
    calls = []
    search = bounds._cover_search

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(bounds, "_cover_search", counted)
    return calls


class TestTaylorFromHypergraph:
    """The Taylor bound as |X| - #closed - tau(S), S the simple edges,
    against the lcm lattice it no longer reads."""

    @given(ideals())
    @settings(max_examples=300, deadline=None)
    def test_lattice_maximum_sits_at_the_top(self, ideal):
        levels = {m: level for m, (level, _, _) in _lattice(ideal).items()}
        top = ideal.variables_used
        assert max(m.bit_count() - k for m, k in levels.items()) == top.bit_count() - levels[top]

    def test_matches_the_lattice_on_random_ideals(self):
        rng = random.Random(53)
        for _ in range(500):
            ideal = random_ideal(rng, rng.randint(14, 26), rng.randint(12, 20))
            assert taylor_regularity_bound(ideal) == lattice_taylor_value(ideal)

    @given(labeled_hypergraphs(max_vertices=10))
    @settings(max_examples=400, deadline=None)
    def test_transversal_matches_brute_force(self, h):
        value = bounds._taylor_bound(h, _simple_masks(h))
        assert h.label_count - value == transversal_number(h)

    @pytest.mark.parametrize("gens, value, nodes", [
        ([f"x{i:02d} x{(i + 1) % 20:02d}" for i in range(20)], 10, 111),  # C20
        ([f"x{i:02d} x{i + 1:02d}" for i in range(20)], 10, 89),  # P20
        ([f"x{i:02d}" for i in range(20)], 0, 1),  # 20 single variables
        # all 120 pairs on 16 vertices as edges: tau is a vertex cover of K16
        ([" ".join(f"e{a:02d}{b:02d}" for a, b in combinations(range(16), 2) if j in (a, b))
          for j in range(16)], 105, 109),
    ], ids=["C20", "P20", "singles20", "pairs16"])
    def test_node_counts(self, monkeypatch, gens, value, nodes):
        calls = counted_cover_search(monkeypatch)
        assert taylor_regularity_bound(parse_ideal("\n".join(gens))) == value
        assert len(calls) == nodes

    def test_best_bounds_searches_up_to_the_cap(self, monkeypatch):
        calls = counted_cover_search(monkeypatch)
        assert best_bounds(word_ideal("ab ac bc")).best_upper == ("taylor_bound", 1)
        assert len(calls) > 0
        calls.clear()
        best_bounds(parse_ideal("\n".join(f"x{i:02d} x{(i + 1) % 21:02d}" for i in range(21))))
        assert calls == []

    def test_bounds_imports_nothing_from_the_oracle(self):
        tree = ast.parse(Path(bounds.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("oracle", "hyperreg.oracle")
                assert not (node.module is None and any(a.name == "oracle" for a in node.names))
            elif isinstance(node, ast.Import):
                assert all(a.name != "hyperreg.oracle" for a in node.names)


class TestIsoBound:
    def test_single_open_vertex_example(self):
        assert iso_upper_bound(hyp("efh cefgij abhij dghij")) == 6

    def test_not_tight_example(self):
        h = hyp("ab acd bef")
        assert iso_upper_bound(h) == 3
        assert regularity(word_ideal("ab acd bef"), GF2) == 2

    def test_agrees_with_saturated_formula(self):
        h = hyp("efhk aefgij bchij dghij")
        assert iso_upper_bound(h) == saturated_regularity(h)

    def test_rejects_adjacent_open_vertices(self):
        with pytest.raises(ValueError):
            iso_upper_bound(hyp("ab ac bc"))


class TestMinFill:
    def test_one_vertex_suffices(self):
        t, fill_set = min_fill_number(hyp("di ade bij fgij efg jh ch"))
        assert t == 1
        assert fill_set == frozenset({7})  # the fgij generator

    def test_isolated_open_vertices_need_nothing(self):
        assert min_fill_number(hyp("efh cefgij abhij dghij")) == (0, frozenset())

    def test_triangle_against_exhaustive_oracle(self):
        h = hyp("ab ac bc")
        t, fill_set = min_fill_number(h)
        assert t == exhaustive_fill_number(h) == 2
        assert len(fill_set) == 2

    def test_full_cubics_against_exhaustive_oracle(self):
        h = hyp("abc abd acd bcd")
        t, _ = min_fill_number(h)
        assert t == exhaustive_fill_number(h) == 3

    def test_random_against_exhaustive_oracle(self):
        rng = random.Random(61)
        for _ in range(60):
            nv = rng.randint(3, 7)
            h = build_hypergraph(
                random_ideal(rng, nv, rng.randint(2, min(6, max_antichain(nv)))))
            t, fill_set = min_fill_number(h)
            assert t == exhaustive_fill_number(h)
            assert len(fill_set) == t
            assert fill_set <= open_vertices(h)


def assert_searches_match_reference(h):
    """The mask searches return the very sets the set-based searches return."""
    assert min_fill_number(h) == ref_min_fill_number(h)
    if dimension(h) != 1:
        return
    try:
        expected = ref_matching_lower_bound(h)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            matching_lower_bound(h)
    else:
        assert matching_lower_bound(h) == expected


class TestMaskSearches:
    def test_hand_built_with_unsorted_ids(self):
        # open path 3 - 7 - 10 - 12 and the open vertex 5 in no edge; 20 is closed
        h = LabeledHypergraph([12, 20, 3, 10, 7, 5], {
            "a": [3, 7], "b": [7, 10], "c": [10, 12], "d": [20], "e": [20, 3], "f": [20, 12]})
        assert min_fill_number(h) == (2, frozenset({7, 10}))
        assert matching_lower_bound(h) is None
        assert_searches_match_reference(h)

    @given(ideals())
    @settings(max_examples=300, deadline=None)
    def test_match_reference_on_ideals(self, ideal):
        assert_searches_match_reference(build_hypergraph(ideal))

    @given(labeled_hypergraphs())
    @settings(max_examples=300, deadline=None)
    def test_match_reference_on_hand_built(self, h):
        assert_searches_match_reference(h)


@st.composite
def graphs(draw, max_vertices=12):
    """A graph on vertices 0..n-1 as a dict of neighbour sets."""
    n = draw(st.integers(1, max_vertices))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    adjacency = {v: set() for v in range(n)}
    for u, v in pairs:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def masks_of(adjacency):
    return [sum(1 << u for u in adjacency[v]) for v in range(len(adjacency))]


class TestCliquePartitionBound:
    """The fill search prunes on a greedy clique partition, a lower bound,
    so the witnesses stay the same; it is never below the greedy matching,
    which would prune nowhere it has not."""

    @given(graphs(), st.integers(0, (1 << 12) - 1))
    @settings(max_examples=300, deadline=None)
    def test_never_exceeds_a_minimum_cover(self, adjacency, alive):
        alive &= (1 << len(adjacency)) - 1
        induced = {v: {u for u in ns if alive >> u & 1}
                   for v, ns in adjacency.items() if alive >> v & 1}
        cover = _ref_min_vertex_cover(induced)
        assert bounds._clique_lower(masks_of(adjacency), alive) <= len(cover)

    def test_never_below_the_greedy_matching_on_small_graphs(self):
        # every labeled graph on up to 6 vertices, so every bit order of each;
        # at most 6 alive vertices of a larger graph induce one of these
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for edges in range(1 << len(pairs)):
                adjacency = [0] * n
                for k, (u, v) in enumerate(pairs):
                    if edges >> k & 1:
                        adjacency[u] |= 1 << v
                        adjacency[v] |= 1 << u
                alive = (1 << n) - 1
                assert bounds._clique_lower(adjacency, alive) >= greedy_matching(adjacency, alive)

    @given(graphs(max_vertices=16), st.integers(0, (1 << 16) - 1))
    @settings(max_examples=500, deadline=None)
    def test_never_below_the_greedy_matching(self, adjacency, alive):
        masks = masks_of(adjacency)
        alive &= (1 << len(masks)) - 1
        assert bounds._clique_lower(masks, alive) >= greedy_matching(masks, alive)

    def test_cliques_grow_in_bit_order(self):
        # a triangle 0-1-2 with a pendant 3 on 2, and the edge 4-5
        adjacency = {0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}, 4: {5}, 5: {4}}
        assert bounds._clique_lower(masks_of(adjacency), 0b111111) == 2 + 0 + 1
        assert bounds._clique_lower(masks_of(adjacency), 0b111110) == 1 + 0 + 1

    def test_random_ideals_keep_the_reference_witness(self):
        rng = random.Random(37)
        for _ in range(1000):
            nv = rng.randint(4, 12)
            ideal = random_ideal(rng, nv, rng.randint(2, min(nv, 10, max_antichain(nv))))
            h = build_hypergraph(ideal)
            t, fill_set = min_fill_number(h)
            assert (t, fill_set) == ref_min_fill_number(h)
            assert t == len(fill_set)

    def test_fewer_nodes_than_the_matching_bound_alone(self, monkeypatch):
        rng = random.Random(41)
        hypergraphs = [build_hypergraph(random_ideal(rng, 12, rng.randint(6, 12)))
                       for _ in range(60)]
        with counting_fill_nodes() as nodes:
            covers = [min_fill_number(h) for h in hypergraphs]
        monkeypatch.setattr(bounds, "_clique_lower", greedy_matching)
        with counting_fill_nodes() as matching_nodes:
            assert [min_fill_number(h) for h in hypergraphs] == covers
        assert 0 < nodes[0] < matching_nodes[0]


class TestGreedySeed:
    """The greedy seed keeps a degree list; it takes the same cover as the
    rescan of every degree by ``_max_degree`` at each pick."""

    @given(graphs(), st.integers(0, (1 << 12) - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_rescan_on_graphs(self, adjacency, alive):
        masks = masks_of(adjacency)
        alive &= (1 << len(masks)) - 1
        assert bounds._greedy_cover(masks, alive) == max_degree_greedy_cover(masks, alive)

    def test_matches_the_rescan_on_random_ideals(self):
        rng = random.Random(43)
        for _ in range(1000):
            nv = rng.randint(4, 14)
            h = build_hypergraph(random_ideal(rng, nv, rng.randint(2, min(nv, 12))))
            adjacency = [a & h.open_mask for a in h.adjacency]
            assert (bounds._greedy_cover(adjacency, h.open_mask)
                    == max_degree_greedy_cover(adjacency, h.open_mask))

    def test_ties_go_to_the_lowest_vertex(self):
        # the path 0-1-2-3: 1 and 2 tie at degree 2, so 1 goes first, then 2 or 3
        # at degree 1 each, 2 by the lower bit
        adjacency = masks_of({0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}})
        assert bounds._greedy_cover(adjacency, 0b1111) == 0b0110


class TestFillBound:
    def test_one_fill_example(self):
        assert fill_upper_bound(hyp("di ade bij fgij efg jh ch")) == 4

    def test_two_triangle_net(self):
        assert fill_upper_bound(hyp("abc def adg beg")) == 4

    def test_saturated_reduces_to_plain_difference(self):
        h = hyp("efhk aefgij bchij dghij")
        assert fill_upper_bound(h) == saturated_regularity(h)

    def test_bounded_by_open_vertex_count(self):
        rng = random.Random(67)
        for _ in range(40):
            h = build_hypergraph(random_ideal(rng, 7, rng.randint(2, 5)))
            base = h.label_count - h.num_vertices
            assert fill_upper_bound(h) <= base + len(open_vertices(h))
            t, _ = min_fill_number(h)
            if t == 0:
                assert fill_upper_bound(h) == iso_upper_bound(h)


class TestSimpleEdgeFormula:
    def test_two_simple_edges(self):
        assert simple_edge_regularity(hyp("ab bcdef ac eg fg gh hi")) == 5

    def test_single_simple_edge(self):
        assert simple_edge_regularity(hyp("abc def adg beg")) == 4

    def test_saturated_empty_sum(self):
        h = hyp("efhk aefgij bchij dghij")
        assert simple_edge_regularity(h) == saturated_regularity(h)

    def test_rejects_triangle(self):
        with pytest.raises(ValueError):
            simple_edge_regularity(hyp("ab ac bc"))


class TestMatching:
    def test_matched_net(self):
        value, witness = matching_lower_bound(hyp("aef bgh ei hk cgij dfjk"))
        assert value == 5
        assert witness == frozenset({3, 4})  # the aef and bgh generators
        assert matching_regularity(hyp("aef bgh ei hk cgij dfjk")) == 5

    def test_unmatched_path(self):
        h = hyp("ab bc cde ef fghi ij jklm mn no")
        assert matching_lower_bound(h) is None
        assert matching_regularity(h) is None

    def test_matched_path(self):
        h = hyp("ab bc cdef fg ghi ij jklm mn no")
        value, _ = matching_lower_bound(h)
        assert value == 6
        assert matching_regularity(h) == 6

    def test_saturated_one_dimensional_vacuous_witness(self):
        h = hyp("ab bc")
        assert matching_lower_bound(h) == (1, frozenset())
        assert matching_regularity(h) == 1

    def test_witness_without_isolated_open_vertices(self):
        h = hyp("ab bc cd de")
        value, witness = matching_lower_bound(h)
        assert value == 1 and witness == frozenset({1, 4})
        assert matching_regularity(h) is None
        assert regularity(word_ideal("ab bc cd de"), GF2) >= value

    def test_rejects_higher_dimension(self):
        with pytest.raises(ValueError):
            matching_lower_bound(hyp("efh aefgij bchij dghij"))

    def test_candidate_cap(self):
        parts = [f"{a}{b} {b}{c}" for a, b, c in
                 ("ABC", "DEF", "GHI", "JKL", "MNO", "PQR", "STU", "VWX",
                  "abc", "def", "ghi")]
        words = " ".join(parts) + " xy xz yz"
        with pytest.raises(CapExceededError):
            matching_lower_bound(hyp(words))


class TestBestBounds:
    def test_saturated_dominates(self):
        report = best_bounds(word_ideal("efhk aefgij bchij dghij"))
        assert report.best_upper == ("saturated_formula", 7)
        assert report.best_lower == ("saturated_formula", 7)
        sat = report.result("saturated_formula")
        assert sat.witness == {"projective_dimension": 4}

    def test_triangle_tightest_upper_wins(self):
        report = best_bounds(word_ideal("ab ac bc"))
        assert report.result("fill_bound").value == 2
        assert report.best_upper == ("taylor_bound", 1)
        assert report.best_lower is None

    def test_simple_edge_formula_dominates(self):
        report = best_bounds(word_ideal("ab bcdef ac eg fg gh hi"))
        assert report.best_upper == ("simple_edge_formula", 5)
        assert report.best_lower == ("simple_edge_formula", 5)

    def test_value_present_iff_applicable(self):
        rng = random.Random(71)
        for _ in range(40):
            report = best_bounds(random_ideal(rng, 7, rng.randint(2, 5)))
            assert tuple(m.method for m in report.methods) == ALL_METHODS
            for m in report.methods:
                assert (m.value is not None) == m.applicable

    def test_uppers_dominate_lowers(self):
        rng = random.Random(73)
        for _ in range(40):
            report = best_bounds(random_ideal(rng, 7, rng.randint(2, 5)))
            if report.best_lower is not None:
                assert report.best_upper[1] >= report.best_lower[1]

    def test_matching_cap_marks_methods_inapplicable(self):
        # 22 closed singleton vertices exceed the matching candidate cap
        ideal = parse_ideal("\n".join(
            [f"x{i} y{i - 1} y{i}" for i in range(1, 23)] + ["y0 y22"]))
        report = best_bounds(ideal)
        assert report.dim == 1
        assert not report.result("matching_lower").applicable
        assert not report.result("matching_formula").applicable
        assert report.best_upper == ("isolated_open_bound", 22)

    def test_reads_no_name_view(self):
        report = best_bounds(word_ideal("ab bcdef ac eg fg gh hi"))
        assert not {"labels", "edges", "edge_labels"} & vars(report.hypergraph).keys()

    def test_fill_number_computed_once(self, monkeypatch):
        calls = []

        def counted(hypergraph):
            calls.append(hypergraph)
            return min_fill_number(hypergraph)

        monkeypatch.setattr(bounds, "min_fill_number", counted)
        report = best_bounds(word_ideal("di ade bij fgij efg jh ch"))
        assert len(calls) == 1
        assert report.result("fill_bound").value == 4

    def test_json_schema(self):
        ideal = word_ideal("di ade bij fgij efg jh ch")
        doc = best_bounds(ideal).to_json_dict(ideal)
        assert doc["hypergraph"] == {"X": 10, "V": 7, "dim": 2}
        assert doc["best_upper"]["value"] == 4
        fill = next(m for m in doc["methods"] if m["id"] == "fill_bound")
        assert fill["witness"] == {"t": 1, "fill_set": [7]}
        assert {m["id"] for m in doc["methods"]} == set(ALL_METHODS)
