import random

import pytest
from hypothesis import given, settings

from helpers import (
    ideal_labeling,
    ideals,
    isomorphic,
    labeled_hypergraphs,
    labelings,
    ref_closed_vertices,
    ref_dimension,
    ref_each_open_in_one,
    ref_has_isolated_open_vertices,
    ref_hash,
    ref_neighbors,
    ref_open_vertices,
    ref_separation_witness,
    ref_simple_edges,
    ref_views,
    word_ideal,
)
from hyperreg.hypergraph import (
    LabeledHypergraph,
    NotSeparatedError,
    _each_open_in_one,
    build_hypergraph,
    closed_vertices,
    dimension,
    has_isolated_open_vertices,
    has_isolated_simple_edges,
    ideal_of,
    is_saturated,
    is_separated,
    neighbors,
    open_vertices,
    render,
    render_dot,
    render_tikz,
    separation_witness,
    simple_edges,
    to_json_dict,
)
from hyperreg.monomials import parse_ideal
from hyperreg.randgen import max_antichain, random_ideal


def edges_as_sets(hypergraph):
    return {frozenset(e) for e in hypergraph.edges}


@pytest.fixture
def walkthrough():
    # canonical vertex order: 1=efh 2=bchij 3=dghij 4=aefgij
    return build_hypergraph(word_ideal("efh aefgij bchij dghij"))


class TestBuild:
    def test_walkthrough_structure(self, walkthrough):
        assert edges_as_sets(walkthrough) == {
            frozenset(s) for s in
            [{2}, {3}, {4}, {1, 4}, {3, 4}, {1, 2, 3}, {2, 3, 4}]}
        assert walkthrough.labels["b"] == walkthrough.labels["c"] == frozenset({2})
        assert walkthrough.labels["e"] == walkthrough.labels["f"] == frozenset({1, 4})
        assert walkthrough.labels["i"] == walkthrough.labels["j"] == frozenset({2, 3, 4})
        assert walkthrough.label_count == 10
        assert sum(walkthrough.multiplicity(e) for e in walkthrough.edges) == 10

    def test_walkthrough_isomorphic_to_source_numbering(self, walkthrough):
        # the same hypergraph with generators numbered as listed in the source
        source = LabeledHypergraph(range(1, 5), {
            "a": {2}, "b": {3}, "c": {3}, "d": {4}, "e": {1, 2}, "f": {1, 2},
            "g": {2, 4}, "h": {1, 3, 4}, "i": {2, 3, 4}, "j": {2, 3, 4}})
        assert isomorphic(walkthrough, source)
        assert not isomorphic(walkthrough, build_hypergraph(word_ideal("ab cd")))

    def test_single_generator(self):
        h = build_hypergraph(word_ideal("a"))
        assert h.vertices == (1,)
        assert edges_as_sets(h) == {frozenset({1})}

    def test_two_disjoint_generators(self):
        h = build_hypergraph(word_ideal("ab cd"))
        assert closed_vertices(h) == frozenset({1, 2})
        assert edges_as_sets(h) == {frozenset({1}), frozenset({2})}
        assert [h.multiplicity(e) for e in h.edges] == [2, 2]

    def test_declared_unused_variables_do_not_label_anything(self):
        ideal = parse_ideal("vars: z\na b\nc d")
        h = build_hypergraph(ideal)
        assert len(ideal.alphabet) == 5
        assert h.label_count == 4
        assert "z" not in h.labels

    def test_label_count_matches_variables_used(self):
        rng = random.Random(3)
        for _ in range(30):
            ideal = random_ideal(rng, 7, 4)
            h = build_hypergraph(ideal)
            assert h.label_count == ideal.variables_used.bit_count()
            assert h.num_vertices == ideal.num_generators


class TestIdealOf:
    def test_walkthrough_round_trip(self, walkthrough):
        ideal = word_ideal("efh aefgij bchij dghij")
        assert ideal_of(walkthrough, ideal.alphabet) == ideal

    def test_single_closed_vertex(self):
        ideal = word_ideal("a")
        h = LabeledHypergraph([1], {"a": {1}})
        assert ideal_of(h, ideal.alphabet) == ideal

    def test_round_trip_up_to_permutation(self):
        rng = random.Random(17)
        for _ in range(200):
            nv = rng.randint(3, 8)
            ideal = random_ideal(rng, nv, rng.randint(2, min(5, max_antichain(nv))))
            h = build_hypergraph(ideal)
            assert ideal_of(h, ideal.alphabet) == ideal
            perm = list(h.vertices)
            rng.shuffle(perm)
            relabel = dict(zip(h.vertices, perm))
            shuffled = LabeledHypergraph(
                h.vertices,
                {name: {relabel[v] for v in image} for name, image in h.labels.items()})
            assert isomorphic(build_hypergraph(ideal_of(shuffled, ideal.alphabet)),
                              shuffled)

    def test_non_separated_rejected_with_witness(self):
        ideal = word_ideal("ab")
        h = LabeledHypergraph([1, 2], {"a": {1, 2}, "b": {1, 2}})
        with pytest.raises(NotSeparatedError) as exc:
            ideal_of(h, ideal.alphabet)
        assert exc.value.witness == (1, 2)


class TestSeparation:
    def test_built_hypergraphs_always_separated(self):
        rng = random.Random(23)
        for _ in range(50):
            ideal = random_ideal(rng, 7, rng.randint(2, 5))
            assert is_separated(build_hypergraph(ideal))

    def test_minimally_generated_triangle_is_separated(self):
        assert is_separated(build_hypergraph(word_ideal("ab bc ac")))

    def test_single_edge_pair_not_separated(self):
        h = LabeledHypergraph([1, 2], {"a": {1, 2}})
        assert separation_witness(h) == (1, 2)

    def test_nested_edges_witness_order(self):
        h = LabeledHypergraph([1, 2], {"a": {1}, "b": {1, 2}})
        assert separation_witness(h) == (2, 1)


class TestVertexPredicates:
    def test_walkthrough_open_and_closed(self, walkthrough):
        assert open_vertices(walkthrough) == frozenset({1})
        assert closed_vertices(walkthrough) == frozenset({2, 3, 4})

    def test_triangle_all_open(self):
        h = build_hypergraph(word_ideal("ab ac bc"))
        assert open_vertices(h) == frozenset({1, 2, 3})

    def test_coprime_pair_all_closed(self):
        h = build_hypergraph(word_ideal("a b"))
        assert closed_vertices(h) == frozenset({1, 2})

    def test_neighbors_from_edge_list(self, walkthrough):
        assert neighbors(walkthrough, 1) == frozenset({2, 3, 4})

    def test_neighbors_of_isolated_closed_vertex(self):
        h = build_hypergraph(word_ideal("ab cd"))
        assert neighbors(h, 1) == frozenset()

    def test_neighbors_unknown_vertex(self, walkthrough):
        with pytest.raises(ValueError):
            neighbors(walkthrough, 9)

    def test_matched_net_neighbors_of_closed_vertex(self):
        # canonical order: 1=ei 2=hk 3=aef 4=bgh 5=cgij 6=dfjk
        h = build_hypergraph(word_ideal("aef bgh ei hk cgij dfjk"))
        assert neighbors(h, 3) == frozenset({1, 6})


def assert_predicates_match_reference(h):
    assert closed_vertices(h) == ref_closed_vertices(h)
    assert open_vertices(h) == ref_open_vertices(h)
    assert is_saturated(h) == (not ref_open_vertices(h))
    assert has_isolated_open_vertices(h) == ref_has_isolated_open_vertices(h)
    for v in h.vertices:
        assert neighbors(h, v) == ref_neighbors(h, v)
    assert {h.vertex_set(e): m for e, m in h.edge_masks.items()} == {
        e: h.multiplicity(e) for e in h.edges}
    assert dimension(h) == ref_dimension(h)
    assert separation_witness(h) == ref_separation_witness(h)
    assert simple_edges(h) == ref_simple_edges(h)
    assert has_isolated_simple_edges(h) == ref_each_open_in_one(h, ref_simple_edges(h))
    assert _each_open_in_one(h, list(h.edge_masks)) == ref_each_open_in_one(h, h.edges)


def assert_views_match_reference(h, vertices, labeling):
    """The lazy views equal the eagerly built ones, in the same order, and
    are kept once built; the hash is the one of the sorted labels."""
    labels, edges, edge_labels = ref_views(labeling)
    assert list(h.labels.items()) == list(labels.items())
    assert h.edges == edges
    assert list(h.edge_labels.items()) == list(edge_labels.items())
    assert h.labels is h.labels and h.edges is h.edges and h.edge_labels is h.edge_labels
    assert hash(h) == ref_hash(vertices, labeling)


class TestMasks:
    def test_bit_k_is_the_kth_sorted_vertex(self):
        # 3 and 10 are closed, 7 is open, 5 lies in no edge (open, isolated)
        h = LabeledHypergraph([10, 3, 7, 5], {"a": [10], "b": [3, 10], "c": [7, 3], "d": [3]})
        assert h.vertices == (3, 5, 7, 10)
        assert h.open_mask == 0b0110
        assert h.adjacency == (0b1100, 0b0000, 0b0001, 0b0001)
        assert h.vertex_set(0b1010) == frozenset({5, 10})
        assert closed_vertices(h) == frozenset({3, 10})
        assert neighbors(h, 3) == frozenset({7, 10})
        assert neighbors(h, 5) == frozenset()
        assert has_isolated_open_vertices(h) and not is_saturated(h)
        assert_predicates_match_reference(h)

    @given(ideals())
    @settings(max_examples=200, deadline=None)
    def test_predicates_match_reference_on_ideals(self, ideal):
        assert_predicates_match_reference(build_hypergraph(ideal))

    @given(labeled_hypergraphs())
    @settings(max_examples=300, deadline=None)
    def test_predicates_match_reference_on_hand_built(self, h):
        assert_predicates_match_reference(h)


class TestColumnMasks:
    """The column masks against the frozenset views and predicates they replace."""

    def test_unused_variables_and_repeated_columns(self):
        # y and z are declared only; a and b label one edge, and so do c and d
        ideal = parse_ideal("vars: y z\na b c d\na b e\nc d f")
        h = build_hypergraph(ideal)
        assert [g.support for g in ideal.generators] == [
            ("a", "b", "e"), ("c", "d", "f"), ("a", "b", "c", "d")]
        assert h.columns == {"a": 0b101, "b": 0b101, "c": 0b110, "d": 0b110,
                             "e": 0b001, "f": 0b010}
        assert h.edge_masks == {0b101: 2, 0b110: 2, 0b001: 1, 0b010: 1}
        assert h.label_count == 6 and h.open_mask == 0b100
        assert h.multiplicity(frozenset({1, 3})) == 2
        assert h.edge_labels == {frozenset({1}): ("e",), frozenset({2}): ("f",),
                                 frozenset({1, 3}): ("a", "b"), frozenset({2, 3}): ("c", "d")}
        assert_views_match_reference(h, range(1, 4), ideal_labeling(ideal))
        assert_predicates_match_reference(h)

    def test_random_ideals_match_reference(self):
        rng = random.Random(29)
        for _ in range(500):
            nv = rng.randint(1, 10)
            ideal = random_ideal(rng, nv, rng.randint(1, min(nv, 8, max_antichain(nv))))
            h = build_hypergraph(ideal)
            assert_views_match_reference(h, range(1, ideal.num_generators + 1),
                                         ideal_labeling(ideal))
            assert_predicates_match_reference(h)

    @given(labelings())
    @settings(max_examples=300, deadline=None)
    def test_hand_built_match_reference(self, drawn):
        vertices, labeling = drawn
        h = LabeledHypergraph(vertices, labeling)
        assert_views_match_reference(h, vertices, labeling)
        assert_predicates_match_reference(h)
        # the same labeling in another order, with repeated image members
        same = LabeledHypergraph(reversed(vertices), {
            name: list(image) * 2 for name, image in reversed(labeling.items())})
        assert same == h and hash(same) == hash(h)

    @given(labelings(), labelings())
    @settings(max_examples=100, deadline=None)
    def test_equality_is_equality_of_labels(self, first, second):
        h, g = LabeledHypergraph(*first), LabeledHypergraph(*second)
        expected = (sorted(first[0]) == sorted(second[0])
                    and ref_views(first[1])[0] == ref_views(second[1])[0])
        assert (h == g) == expected

    def test_label_checks(self):
        with pytest.raises(ValueError, match="'b' has empty image"):
            LabeledHypergraph([1, 2], {"c": [3], "b": [], "a": [1]})
        with pytest.raises(ValueError, match="'c' maps outside"):
            LabeledHypergraph([1, 2], {"c": [1, 3], "d": []})
        with pytest.raises(ValueError, match="at least one label"):
            LabeledHypergraph([1, 2], {})


class TestIsolatedOpenVertices:
    def test_single_open_vertex_case(self):
        h = build_hypergraph(word_ideal("efh cefgij abhij dghij"))
        assert has_isolated_open_vertices(h)

    def test_triangle_fails(self):
        assert not has_isolated_open_vertices(build_hypergraph(word_ideal("ab ac bc")))

    def test_saturated_is_vacuously_isolated(self):
        h = build_hypergraph(word_ideal("efhk aefgij bchij dghij"))
        assert is_saturated(h) and has_isolated_open_vertices(h)


class TestSimpleEdges:
    def test_two_simple_edges_example(self):
        # canonical order: 1=ab 2=ac 3=eg 4=fg 5=gh 6=hi 7=bcdef
        h = build_hypergraph(word_ideal("ab bcdef ac eg fg gh hi"))
        assert simple_edges(h) == {frozenset({1, 2}), frozenset({3, 4, 5})}
        assert has_isolated_simple_edges(h)

    def test_all_singletons_no_simple_edges(self):
        assert simple_edges(build_hypergraph(word_ideal("ab cd"))) == frozenset()

    def test_walkthrough_brute_force_subedge_scan(self, walkthrough):
        expected = set()
        for e in walkthrough.edges:
            if len(e) >= 2 and not any(
                    f and set(f) < set(e) for f in walkthrough.edges if f != e):
                expected.add(e)
        assert simple_edges(walkthrough) == expected == frozenset()

    def test_net_has_one_simple_edge(self):
        h = build_hypergraph(word_ideal("abc def adg beg"))
        simples = simple_edges(h)
        assert len(simples) == 1 and len(next(iter(simples))) == 2
        assert has_isolated_simple_edges(h)

    def test_triangle_fails_isolated_simple(self):
        assert not has_isolated_simple_edges(build_hypergraph(word_ideal("ab ac bc")))

    def test_saturated_vacuously_has_isolated_simple_edges(self):
        assert has_isolated_simple_edges(build_hypergraph(word_ideal("a b")))


class TestSaturationAndDimension:
    def test_saturated_example(self):
        assert is_saturated(build_hypergraph(word_ideal("efhk aefgij bchij dghij")))

    def test_walkthrough_not_saturated(self, walkthrough):
        assert not is_saturated(walkthrough)

    def test_single_vertex_saturated(self):
        assert is_saturated(build_hypergraph(word_ideal("a")))

    def test_dimensions(self, walkthrough):
        assert dimension(walkthrough) == 2
        assert dimension(build_hypergraph(word_ideal("aef bgh ei hk cgij dfjk"))) == 1
        assert dimension(build_hypergraph(word_ideal("a"))) == 0

    def test_saturated_implies_isolated_open(self):
        rng = random.Random(31)
        for _ in range(50):
            h = build_hypergraph(random_ideal(rng, 6, rng.randint(2, 4)))
            if is_saturated(h):
                assert has_isolated_open_vertices(h)


class TestUnlabeledCollision:
    def test_same_shape_different_labels(self):
        small = build_hypergraph(word_ideal("ac bc"))
        large = build_hypergraph(word_ideal("acd bcd"))
        assert small.vertices == large.vertices
        assert edges_as_sets(small) == edges_as_sets(large)
        assert small.labels != large.labels


class TestRendering:
    def test_dot_structure(self, walkthrough):
        dot = render(walkthrough, "dot")
        assert dot.count("style=filled") == 3
        assert dot.count("style=solid") == 1
        assert dot.count("shape=point") == 2  # hubs for the two size-3 edges
        assert 'v1 -- v4 [label="e,f"];' in dot

    def test_single_vertex_dot(self):
        dot = render_dot(build_hypergraph(word_ideal("a")))
        assert dot.count("style=filled") == 1

    def test_rendering_is_deterministic(self, walkthrough):
        assert render_dot(walkthrough) == render_dot(walkthrough)
        assert render_tikz(walkthrough) == render_tikz(walkthrough)

    def test_tikz_standalone_shape(self, walkthrough):
        tikz = render_tikz(walkthrough)
        assert tikz.startswith("\\documentclass[tikz]{standalone}")
        assert tikz.count("\\begin{tikzpicture}") == tikz.count("\\end{tikzpicture}") == 1
        assert tikz.rstrip().endswith("\\end{document}")

    def test_unsupported_format(self, walkthrough):
        with pytest.raises(ValueError):
            render(walkthrough, "svg")


class TestJson:
    def test_schema_shape(self, walkthrough):
        doc = to_json_dict(walkthrough)
        assert doc["vertices"] == [1, 2, 3, 4]
        assert doc["labels"]["h"] == [1, 2, 3]
        first = doc["edges"][0]
        assert set(first) == {"members", "multiplicity", "labels"}
        assert sum(e["multiplicity"] for e in doc["edges"]) == 10
