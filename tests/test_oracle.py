import ast
import gc
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from math import comb
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    _support_key,
    assert_support_key_order,
    chain_complex_ranks,
    counting_union_homology,
    dense_boundary,
    dense_rank,
    draws_at_the_lattice_cap,
    faces,
    has_face,
    hochster_betti,
    ideals,
    nerve_faces,
    nerve_homology,
    subset_scan_levels,
    subset_scan_strands,
    taylor_rank,
    uncleared_chain_ranks,
    unit_entry_scan,
    word_ideal,
)
from hyperreg import oracle
from hyperreg.bounds import TAYLOR_BOUND_GENERATORS, taylor_regularity_bound
from hyperreg.corpus import CORPUS
from hyperreg.hypergraph import build_hypergraph, is_saturated
from hyperreg.monomials import (
    Alphabet, Monomial, MonomialIdeal, _bits, _transpose, alexander_dual, parse_ideal)
from hyperreg.oracle import (
    GF2,
    GF3,
    BettiTable,
    CapExceededError,
    MAX_LATTICE_GENERATORS,
    MAX_TAYLOR_GENERATORS,
    FieldSpec,
    SimplicialComplex,
    _chain_ranks,
    _element_matchings,
    _extremes,
    _faces_of_facets,
    _lattice,
    _maximal_masks,
    _morse_homology,
    _rank_sparse,
    _subset_lcms,
    _union_homology,
    betti_table,
    is_taylor_minimal,
    lcm_lattice,
    projective_dimension,
    reduced_homology_ranks,
    regularity,
    taylor_complex,
    taylor_strand_betti,
    upper_koszul,
)
from hyperreg.randgen import max_antichain, random_ideal, variable_names

GF5 = FieldSpec(5)


def mono(ideal, letters):
    return Monomial.of(ideal.alphabet, list(letters))


def degree_names(table):
    return {(i, table.alphabet.names_of(mask)): rank
            for (i, mask), rank in table.entries.items()}


class TestFieldSpec:
    def test_accepts_small_primes(self):
        assert FieldSpec(2).characteristic == 2
        assert FieldSpec(65521).characteristic == 65521

    @pytest.mark.parametrize("bad", [0, 1, 4, 9, 65537])
    def test_rejects_non_primes_and_large(self, bad):
        with pytest.raises(ValueError):
            FieldSpec(bad)


class TestBoundaryRank:
    """The one rank kernel against dense elimination on seeded random matrices."""

    PRIMES = (2, 3, 5, 65521)

    @staticmethod
    def signed_rows(rng, nrows, ncols):
        rows = []
        for _ in range(nrows):
            support = negative = 0
            if rng.random() > 0.1:  # keep some empty rows
                for c in rng.sample(range(ncols), rng.randint(0, min(ncols, 6))):
                    support |= 1 << c
                    if rng.random() < 0.5:
                        negative |= 1 << c
            rows.append((support, negative))
        return rows

    @staticmethod
    def dense(rows, ncols, p):
        return [[(p - 1 if neg >> c & 1 else 1) if sup >> c & 1 else 0
                 for c in range(ncols)] for sup, neg in rows]

    @pytest.mark.parametrize("p", PRIMES)
    def test_signed_rows_match_dense(self, p):
        rng = random.Random(p)
        for _ in range(150):
            nrows, ncols = rng.randint(0, 14), rng.randint(1, 14)
            rows = self.signed_rows(rng, nrows, ncols)
            rank = len(_rank_sparse(self.sparse(rows, p), p))
            assert rank == dense_rank(self.dense(rows, ncols, p), p)

    @pytest.mark.parametrize("p", PRIMES[1:])
    def test_arbitrary_residues_match_dense(self, p):
        rng = random.Random(1000 + p)
        for _ in range(150):
            nrows, ncols = rng.randint(0, 12), rng.randint(1, 12)
            rows = [{c: rng.randrange(1, p)
                     for c in rng.sample(range(ncols), rng.randint(0, ncols))}
                    for _ in range(nrows)]
            dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
            assert len(_rank_sparse(rows, p)) == dense_rank(dense, p)

    def test_empty_and_zero_rows(self):
        for p in self.PRIMES:
            assert len(_rank_sparse([], p)) == 0
            assert len(_rank_sparse(self.sparse([(0, 0)] * 3, p), p)) == 0
            assert len(_rank_sparse([{}, {}], p)) == 0

    @staticmethod
    def sparse(rows, p):
        return [{c: p - 1 if neg >> c & 1 else 1 for c in range(sup.bit_length()) if sup >> c & 1}
                for sup, neg in rows]

    def test_gf3_masks_match_sparse_and_dense(self):
        rng = random.Random(3003)
        for _ in range(300):
            nrows, ncols = rng.randint(0, 14), rng.randint(1, 14)
            rows = self.signed_rows(rng, nrows, ncols)
            for k in rng.sample(range(nrows), nrows // 2):
                sup, neg = rows[k]
                if sup:  # lead with -1
                    rows[k] = (sup, neg | 1 << sup.bit_length() - 1)
            rows += [(0, 0)] * rng.randint(0, 2)
            rng.shuffle(rows)
            rank = len(_rank_sparse(self.sparse(rows, 3), 3))
            assert rank == dense_rank(self.dense(rows, ncols, 3), 3)

    def test_gf3_leading_minus_one_pivots(self):
        # e0 - e1 is stored as e1 - e0; e0 + e1 then reduces to 2e0 = -e0, a
        # pivot, and -e0 - e1 to -2e0 = e0, which that pivot clears
        rows = [(0b11, 0b10), (0b11, 0), (0b11, 0b11)]
        assert sorted(_rank_sparse(self.sparse(rows, 3), 3)) == [0, 1]
        # multiples of e0 + e1, leading with +1 or -1, all reduce to zero
        rows = [(0b11, 0), (0b11, 0b11), (0b11, 0)]
        assert sorted(_rank_sparse(self.sparse(rows, 3), 3)) == [1]

    def test_characteristic_matters(self):
        # rows e0+e1, e1+e2, e0+e2: dependent over GF(2) only
        rows = [(0b011, 0), (0b110, 0), (0b101, 0)]
        assert len(_rank_sparse(self.sparse(rows, 2), 2)) == 2
        assert len(_rank_sparse(self.sparse(rows, 3), 3)) == 3


class TestSimplicialComplex:
    def test_from_faces_validates_downward_closure(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_faces("ab", [("a", "b")])

    @pytest.mark.parametrize("build", [SimplicialComplex.from_facets, SimplicialComplex.from_faces])
    def test_face_vertex_outside_the_vertex_set_is_named(self, build):
        with pytest.raises(ValueError, match="face vertex 3 lies outside the vertex set"):
            build([0, 1, 2], [(), (0,), (1,), (0, 1), (3,)])

    def test_from_facets_closes_downward(self):
        c = SimplicialComplex.from_facets("abc", [("a", "b"), ("c",)])
        assert c.num_faces == 5  # empty, a, b, c, ab
        assert has_face(c, ())
        assert has_face(c, ("a", "b"))
        assert not has_face(c, ("a", "c"))

    def test_facets_are_the_maximal_antichain(self):
        c = SimplicialComplex.from_facets("abc", [("a", "b"), ("a",), ("b", "a"), ("c",)])
        assert sorted(c.facets) == [0b011, 0b100]
        assert c.num_faces == 5

    def test_face_cap_is_hard_error(self):
        # one facet; the cap fires only where its 2^17 faces would be built
        c = SimplicialComplex.from_facets(range(17), [tuple(range(17))])
        for build_faces in (lambda: c.faces_by_dim, lambda: c.num_faces,
                            lambda: chain_complex_ranks(c, GF2)):
            with pytest.raises(CapExceededError):
                build_faces()
        assert reduced_homology_ranks(c, GF2) == [0] * 18


class TestUpperKoszul:
    def test_degree_of_a_generator_gives_empty_face_only(self):
        ideal = word_ideal("ab")
        c = upper_koszul(ideal, mono(ideal, "ab"))
        # only the empty subset works: removing any variable leaves a
        # monomial outside the ideal, and removing none leaves ab itself
        assert c.faces_by_dim == {-1: (0,)}

    def test_principal_linear_ideal(self):
        ideal = word_ideal("a")
        c = upper_koszul(ideal, mono(ideal, "a"))
        assert c.faces_by_dim == {-1: (0,)}

    def test_degree_outside_ideal_is_void(self):
        ideal = word_ideal("ab")
        c = upper_koszul(ideal, mono(ideal, "a"))
        assert c.is_void

    def test_triangle_top_degree_is_three_points(self):
        ideal = word_ideal("ab ac bc")
        c = upper_koszul(ideal, mono(ideal, "abc"))
        assert len(faces(c, -1)) == 1
        assert len(faces(c, 0)) == 3
        assert c.dim == 0

    def test_collapse_route_passes_the_face_cap(self):
        # at the top degree of x01, x02...x18: a point beside a 16-simplex
        names = [f"x{k:02d}" for k in range(1, 19)]
        ideal = parse_ideal(names[0] + "\n" + " ".join(names[1:]))
        top = mono(ideal, names)
        c = upper_koszul(ideal, top)
        assert c.dim == 16
        for f in (GF2, GF3):
            entries = betti_table(ideal, f).entries
            assert reduced_homology_ranks(c, f) == [0, 1] + [0] * 16 == [
                entries.get((d + 2, top.mask), 0) for d in range(-1, 17)]
            with pytest.raises(CapExceededError):
                chain_complex_ranks(c, f)


class TestHomologyConventions:
    def test_two_isolated_points(self):
        c = SimplicialComplex.from_facets("ab", [("a",), ("b",)])
        for f in (GF2, GF3):
            assert reduced_homology_ranks(c, f) == [0, 1]
            assert chain_complex_ranks(c, f) == [0, 1]

    def test_hollow_triangle_is_a_circle(self):
        c = SimplicialComplex.from_facets(
            "abc", [("a", "b"), ("a", "c"), ("b", "c")])
        for f in (GF2, GF3, GF5):
            assert reduced_homology_ranks(c, f) == [0, 0, 1]
            assert chain_complex_ranks(c, f) == [0, 0, 1]

    def test_empty_face_only_complex(self):
        c = SimplicialComplex((), [0])
        assert reduced_homology_ranks(c, GF2) == [1]

    def test_void_complex_has_no_homology(self):
        c = SimplicialComplex((), [])
        assert reduced_homology_ranks(c, GF2) == []

    def test_solid_triangle_is_contractible(self):
        c = SimplicialComplex.from_facets("abc", [("a", "b", "c")])
        assert reduced_homology_ranks(c, GF3) == [0, 0, 0, 0]


class TestLcmLattice:
    def test_disjoint_pair(self):
        ideal = word_ideal("ab cd")
        assert {str(m) for m in lcm_lattice(ideal)} == {"a*b", "c*d", "a*b*c*d"}

    def test_triangle(self):
        ideal = word_ideal("ab ac bc")
        assert {str(m) for m in lcm_lattice(ideal)} == {"a*b", "a*c", "b*c", "a*b*c"}

    def test_principal(self):
        assert [str(m) for m in lcm_lattice(word_ideal("a"))] == ["a"]

    def test_generator_cap(self):
        ideal = word_ideal(" ".join("abcdefghijklmnopqrstu"))  # 21 variables
        with pytest.raises(CapExceededError):
            lcm_lattice(ideal)

    @given(ideals())
    @settings(max_examples=200, deadline=None)
    def test_top_is_lcm_of_all_generators(self, ideal):
        top = max(lcm_lattice(ideal), key=lambda m: (m.degree, m.mask))
        assert top.mask == ideal.variables_used


def lattice_levels(ideal):
    return {b: level for b, (level, _, _) in _lattice(ideal).items()}


class TestLatticeLevels:
    """The incremental closure against a scan of every generator subset."""

    # x03, x01 x02 x04 and x00 x04 x05 x06 already have the lcm of all four
    # generators: only a closure that keeps the smaller level when two joins
    # meet gets level 3 there, and the Taylor bound 4
    COLLISION = "x03\nx01 x02 x04\nx01 x04 x06\nx00 x04 x05 x06"

    @given(ideals())
    @settings(max_examples=300, deadline=None)
    def test_matches_subset_scan(self, ideal):
        assert lattice_levels(ideal) == subset_scan_levels(ideal)

    def test_collision_keeps_the_smaller_level(self):
        ideal = parse_ideal(self.COLLISION)
        levels = lattice_levels(ideal)
        assert levels == subset_scan_levels(ideal)
        assert max(m.bit_count() - k for m, k in levels.items()) == 4

    @given(ideals())
    @example(parse_ideal(COLLISION))
    @settings(max_examples=300, deadline=None)
    def test_strands_match_subset_scan(self, ideal):
        # the fewest and the most generators with lcm b, and the signed count
        lattice = _lattice(ideal)
        gens = ideal.generator_masks
        assert {b: (level, divisors.bit_count(), sign)
                for b, (level, divisors, sign) in lattice.items()} == subset_scan_strands(ideal)
        for b, (_, divisors, _) in lattice.items():
            assert divisors == sum(1 << j for j, g in enumerate(gens) if g & ~b == 0)

    def test_cached_levels_are_read_only(self):
        ideal = parse_ideal(self.COLLISION)
        lattice = _lattice(ideal)
        assert isinstance(lattice, MappingProxyType)
        with pytest.raises(TypeError):
            lattice[0b1000] = (9, 0, 0)
        for values in lattice.values():
            assert isinstance(values, tuple)
            with pytest.raises(TypeError):
                values[0] = 9
        assert lattice_levels(ideal) == subset_scan_levels(ideal)
        assert taylor_regularity_bound(ideal) == 4

    def test_no_memo(self):
        # each call builds its own map; nothing of an ideal is kept between calls
        ideal = parse_ideal(self.COLLISION)
        assert not hasattr(_lattice, "cache_info")
        assert _lattice(ideal) is not _lattice(ideal)

    def test_subsets_holding_is_the_only_memo(self):
        cached = []
        for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef):
                    for d in node.decorator_list:
                        name = ast.unparse(d.func if isinstance(d, ast.Call) else d)
                        if name.rsplit(".", 1)[-1] in ("lru_cache", "cache"):
                            cached.append(node.name)
        assert cached == ["_subsets_holding"]


class TestBettiTable:
    def test_koszul_complex_of_two_variables(self):
        table = betti_table(word_ideal("a b"), GF2)
        assert degree_names(table) == {
            (0, ()): 1, (1, ("a",)): 1, (1, ("b",)): 1, (2, ("a", "b")): 1}
        assert table.regularity == 0
        assert table.projective_dimension == 2

    def test_triangle_table(self):
        table = betti_table(word_ideal("ab ac bc"), GF2)
        assert degree_names(table) == {
            (0, ()): 1,
            (1, ("a", "b")): 1, (1, ("a", "c")): 1, (1, ("b", "c")): 1,
            (2, ("a", "b", "c")): 2}
        assert table.regularity == 1
        coarse = table.coarse()
        assert coarse[(1, 2)] == 3 and coarse[(2, 3)] == 2

    def test_saturated_corpus_ideal(self):
        ideal = word_ideal("efhk aefgij bchij dghij")
        assert regularity(ideal, GF2) == 7
        assert projective_dimension(ideal, GF2) == 4

    def test_declared_unused_variables_do_not_move_the_table(self):
        from hyperreg.monomials import parse_ideal
        plain = betti_table(word_ideal("ab cd"), GF2)
        padded = betti_table(parse_ideal("vars: z\na b\nc d"), GF2)
        assert padded.regularity == plain.regularity == 2
        assert padded.projective_dimension == plain.projective_dimension == 2

    @pytest.mark.parametrize("words,reg", [
        ("ab bc cde ef fghi ij jklm mn no", 5),
        ("di ade bij fgij efg jh ch", 4),
        ("ab acd bef", 2),
    ])
    def test_quoted_regularities(self, words, reg):
        assert regularity(word_ideal(words), GF2) == reg

    def test_first_syzygies_are_the_generators(self):
        rng = random.Random(41)
        for _ in range(20):
            ideal = random_ideal(rng, 6, 4)
            table = betti_table(ideal, GF2)
            ones = {mask for (i, mask) in table.entries if i == 1}
            assert ones == set(ideal.generator_masks)
            assert all(rank == 1 for (i, _), rank in table.entries.items() if i == 1)

    def test_entries_live_on_the_lattice(self):
        rng = random.Random(43)
        for _ in range(20):
            ideal = random_ideal(rng, 6, 4)
            lattice = {m.mask for m in lcm_lattice(ideal)} | {0}
            table = betti_table(ideal, GF2)
            assert all(mask in lattice for _, mask in table.entries)

    def test_complete_intersections(self):
        rng = random.Random(47)
        for _ in range(20):
            names = list("abcdefgh")
            rng.shuffle(names)
            cut = sorted(rng.sample(range(1, 8), rng.randint(1, 3)))
            blocks = [names[i:j] for i, j in zip([0] + cut, cut + [8])]
            ideal = word_ideal(" ".join("".join(b) for b in blocks))
            mu = len(blocks)
            assert regularity(ideal, GF2) == 8 - mu
            assert projective_dimension(ideal, GF2) == mu

    def test_generator_cap(self):
        ideal = word_ideal(" ".join("abcdefghijklmnopqrstu"))
        with pytest.raises(CapExceededError):
            betti_table(ideal, GF2)

    def test_entries_are_read_only(self):
        ideal = word_ideal("ab bc")
        entries = dict(betti_table(ideal, GF2).entries)
        with pytest.raises(AttributeError):
            betti_table(ideal, GF2).entries.clear()
        with pytest.raises(TypeError):
            betti_table(ideal, GF2).entries[(0, 0)] = 5
        with pytest.raises(AttributeError):
            betti_table(ideal, GF2).field = GF3
        assert betti_table(ideal, GF2).entries == entries
        assert betti_table(ideal, GF2).field == GF2

    def test_tables_are_not_retained(self):
        # past one-time state (the Morse route's subset masks, the last
        # lattice), computing tables of new ideals keeps nothing of them
        rng = random.Random(1)
        for _ in range(50):
            betti_table(random_ideal(rng, 10, 7), GF2)
        rng = random.Random(2)
        drawn = [random_ideal(rng, 10, 7) for _ in range(200)]
        assert len(set(drawn)) == 200
        gc.collect()
        tracemalloc.start()
        try:
            for ideal in drawn:
                betti_table(ideal, GF2)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    @given(ideals(max_vars=8, max_gens=7), st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_entries_in_support_key_order(self, ideal, p):
        field_spec = FieldSpec(p)
        assert_support_key_order(betti_table(ideal, field_spec))
        assert_support_key_order(taylor_strand_betti(ideal, field_spec))

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, (1 << n) - 1)),
                                    st.integers(1, 5), max_size=40))))
    def test_arbitrary_entries_in_support_key_order(self, drawn):
        n, entries = drawn
        assert_support_key_order(BettiTable(GF2, Alphabet(variable_names(n)), entries))

    def test_render_text_triangle(self):
        text = betti_table(word_ideal("ab ac bc"), GF2).render_text()
        lines = text.splitlines()
        assert lines[0].split() == ["0", "1", "2"]
        assert lines[1].split() == ["total:", "1", "3", "2"]
        assert lines[2].split() == ["0:", "1", ".", "."]
        assert lines[3].split() == ["1:", ".", "3", "2"]

    def test_json_shape(self):
        doc = betti_table(word_ideal("a b"), GF3).to_json_dict()
        assert doc["field"] == 3 and doc["reg"] == 0 and doc["pd"] == 2
        assert {"i": 2, "degree": ["a", "b"], "rank": 1} in doc["entries"]


class TestTaylorComplex:
    def test_koszul_shape_on_two_coprime_generators(self):
        t = taylor_complex(word_ideal("a b"))
        assert [taylor_rank(t, i) for i in range(3)] == [1, 2, 1]
        assert str(t.multidegree(0b11)) == "a*b"
        terms = t.differential(0b11)
        alphabet = t.ideal.alphabet
        assert terms == [
            (0b10, -1, alphabet.mask_of("a")), (0b01, 1, alphabet.mask_of("b"))]

    def test_triangle_top_multidegree(self):
        t = taylor_complex(word_ideal("ab ac bc"))
        assert taylor_rank(t, 3) == 1
        assert str(t.multidegree(0b111)) == "a*b*c"

    def test_saturated_top_is_everything(self):
        ideal = word_ideal("efhk aefgij bchij dghij")
        t = taylor_complex(ideal)
        assert t.multidegree(0b1111).degree == 11

    def test_generator_cap(self):
        ideal = word_ideal(" ".join("abcdefghijklmnopq"))  # 17 generators
        with pytest.raises(CapExceededError):
            taylor_complex(ideal)


class TestTaylorStrands:
    def test_matches_koszul_route_on_fixed_ideals(self):
        for words in ("a b", "ab ac bc", "ab bcdef ac eg fg gh hi"):
            ideal = word_ideal(words)
            for f in (GF2, GF3):
                assert taylor_strand_betti(ideal, f) == betti_table(ideal, f)

    def test_matches_on_random_ideals_both_fields(self):
        rng = random.Random(53)
        for _ in range(100):
            nv = rng.randint(3, 7)
            ideal = random_ideal(rng, nv, rng.randint(2, min(5, max_antichain(nv))))
            for f in (GF2, GF3):
                assert taylor_strand_betti(ideal, f) == betti_table(ideal, f)

    def test_matches_on_larger_ideals_over_gf5(self):
        rng = random.Random(61)
        for _ in range(3):
            ideal = random_ideal(rng, 12, 10)
            assert taylor_strand_betti(ideal, GF5) == betti_table(ideal, GF5)

    @given(ideals())
    @settings(max_examples=100, deadline=None)
    def test_matches_on_drawn_ideals(self, ideal):
        for f in (GF2, GF3, GF5):
            assert taylor_strand_betti(ideal, f) == betti_table(ideal, f)

    def test_triangle_entries_identical_across_characteristics(self):
        ideal = word_ideal("ab ac bc")
        assert betti_table(ideal, GF2).entries == betti_table(ideal, GF3).entries
        assert (taylor_strand_betti(ideal, GF2).entries
                == taylor_strand_betti(ideal, GF3).entries)


class TestTaylorMinimal:
    def test_saturated_corpus_ideal_is_minimal(self):
        assert is_taylor_minimal(word_ideal("efhk aefgij bchij dghij"))

    def test_triangle_is_not(self):
        assert not is_taylor_minimal(word_ideal("ab ac bc"))

    def test_coprime_pair_is_minimal(self):
        assert is_taylor_minimal(word_ideal("a b"))

    def test_equivalence_with_saturation(self):
        rng = random.Random(59)
        for _ in range(60):
            ideal = random_ideal(rng, 6, rng.randint(2, 5))
            assert is_taylor_minimal(ideal) == is_saturated(build_hypergraph(ideal))

    @given(ideals(max_vars=8, max_gens=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_unit_entry_scan(self, ideal):
        assert is_taylor_minimal(ideal) == unit_entry_scan(ideal)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            is_taylor_minimal(parse_ideal("\n".join(variable_names(MAX_TAYLOR_GENERATORS + 1))))


class TestGeneratorCaps:
    """Each generator cap is enforced by the one scan it bounds, with one message."""

    @pytest.mark.parametrize("compute", [lcm_lattice, betti_table])
    def test_lattice_cap(self, compute):
        ideal = parse_ideal("\n".join(variable_names(MAX_LATTICE_GENERATORS + 1)))
        with pytest.raises(CapExceededError, match="^lcm lattice capped at 20 generators$"):
            compute(ideal)

    def test_taylor_bound_cap(self):
        # the bound reads no lattice; it keeps the lattice's applicability under its own cap
        assert TAYLOR_BOUND_GENERATORS == MAX_LATTICE_GENERATORS
        ideal = parse_ideal("\n".join(variable_names(TAYLOR_BOUND_GENERATORS + 1)))
        with pytest.raises(CapExceededError, match="^Taylor bound capped at 20 generators$"):
            taylor_regularity_bound(ideal)

    @pytest.mark.parametrize("compute", [taylor_complex, taylor_strand_betti, is_taylor_minimal])
    def test_taylor_cap(self, compute):
        ideal = parse_ideal("\n".join(variable_names(MAX_TAYLOR_GENERATORS + 1)))
        with pytest.raises(CapExceededError, match="^Taylor complex capped at 16 generators$"):
            compute(ideal)


class TestDualityCrossCheck:
    """reg(R/I) + 1 must equal the projective dimension of R modulo the
    Alexander dual, and dually.  The implementation never uses this
    identity, so it ties the transversal enumeration and both homology
    routes together as a third independent consistency check."""

    def test_net_ideal(self):
        ideal = word_ideal("abc def adg beg")
        dual = alexander_dual(ideal)
        assert regularity(ideal, GF2) + 1 == projective_dimension(dual, GF2) == 5
        assert regularity(dual, GF2) + 1 == projective_dimension(ideal, GF2)

    def test_random_ideals_both_directions(self):
        rng = random.Random(77)
        for _ in range(60):
            nv = rng.randint(3, 7)
            ideal = random_ideal(rng, nv, rng.randint(2, min(5, max_antichain(nv))))
            dual = alexander_dual(ideal)
            if dual.num_generators > 12:
                continue
            table = betti_table(ideal, GF2)
            dual_table = betti_table(dual, GF2)
            assert table.regularity + 1 == dual_table.projective_dimension
            assert dual_table.regularity + 1 == table.projective_dimension


@st.composite
def facet_families(draw, max_vertices=7, max_facets=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    facets = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                           min_size=1, max_size=max_facets))
    return n, facets


@given(facet_families())
@settings(max_examples=200, deadline=None)
def test_collapse_preserves_homology(family):
    n, facets = family
    vertices = tuple(range(n))
    named = [[v for v in vertices if f >> v & 1] for f in facets]
    c = SimplicialComplex.from_facets(vertices, named)
    for f in (GF2, GF3, GF5):
        assert reduced_homology_ranks(c, f) == chain_complex_ranks(c, f)


@given(ideals(max_vars=10, max_gens=8))
@settings(max_examples=300, deadline=None)
def test_complex_routes_match_betti_table(ideal):
    for f in (GF2, GF3):
        entries = betti_table(ideal, f).entries
        for b in lcm_lattice(ideal):
            c = upper_koszul(ideal, b)
            expected = [entries.get((d + 2, b.mask), 0) for d in range(-1, c.dim + 1)]
            assert reduced_homology_ranks(c, f) == expected
            assert chain_complex_ranks(c, f) == expected


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


@given(facet_families(max_vertices=9, max_facets=10))
@example((1, [0]))  # only the empty face
@example((3, [0b011, 0b101]))  # a cone
@example((5, [0b10001, 0b01100, 0b00101, 0b00110]))  # a cone after one peel
@settings(max_examples=500, deadline=None)
def test_peel_matches_chain_complex(family):
    _, facets = family
    facets = _maximal_masks(facets)
    layers = _faces_of_facets(facets)
    for p in (2, 3, 5):
        assert _union_homology(facets, p) == _chain_ranks(layers, p)


@pytest.fixture
def face_builds(monkeypatch):
    """Records every facet list expanded into faces."""
    calls = []
    original = oracle._faces_of_facets
    monkeypatch.setattr(oracle, "_faces_of_facets",
                        lambda facets: calls.append(facets) or original(facets))
    return calls


@pytest.mark.parametrize("text, degree, expected", [
    ("a b\nb c\nc d", "abcd", [0, 0, 0]),  # a path: its two end facets cover it
    ("a\nb\nc", "abc", [0, 0, 1]),  # the boundary of a triangle
    ("x01\n" + " ".join(f"x{k:02d}" for k in range(2, 19)),
     [f"x{k:02d}" for k in range(1, 19)], [0, 1] + [0] * 16),  # two points
    # every divisor of the degree has a variable no other divisor has
    ("a b\nb c d\nd e", "abcde", [0, 0, 1, 0]),
    # the facet missing p is peeled, which leaves two points
    ("p x\nx y\ny z\nx z", "pxyz", [0, 0, 1]),
    # the facet a is peeled, and no other facet meets it
    ("b c d\na d\na c", "abcd", [0, 1, 0]),
    # the facet a e is peeled, and the rest cut down to it is the cone a:
    # the facets 0b10001, 0b01100, 0b00101, 0b00110 need a cone check each round
    ("b c d\na b e\nb d e\na d e", "abcde", [0, 0, 0]),
], ids=["point", "triangle-boundary", "point-and-16-simplex",
        "taylor-degree", "peel-then-two-points", "peel-to-empty-face", "peel-to-cone"])
def test_complex_route_builds_no_faces_on_known_cores(
        face_builds, text, degree, expected):
    ideal = parse_ideal(text)
    c = upper_koszul(ideal, mono(ideal, degree))
    for f in (GF2, GF3, GF5):
        assert reduced_homology_ranks(c, f) == expected
    assert face_builds == []


@pytest.mark.parametrize("facets, expected", [
    ([0b11, 0b1001, 0b10010, 0b10100], {}),  # the path d a b e c
    ([0b10101, 0b11000, 0b1001, 0b110], {1: 1}),  # a circle with a triangle and an edge on it
], ids=["point", "circle"])
def test_collapsed_cores_exit_without_faces(
        face_builds, chain_bases, facets, expected):
    # every vertex is missed by two facets or more, so nothing is peeled, and
    # the four facets settle on their nerve with no strong collapse
    for p in (2, 3, 5):
        assert _union_homology(facets, p) == expected
    assert face_builds == []
    assert chain_bases == []


@pytest.mark.parametrize("k", range(1, 7))
def test_simplex_boundary_exits_without_faces(face_builds, k):
    full = (1 << (k + 1)) - 1
    facets = [full ^ (1 << v) for v in range(k + 1)]
    for p in (2, 3):
        expected = _chain_ranks(_faces_of_facets(facets), p)
        assert expected == {k - 1: 1}
        assert _union_homology(facets, p) == expected
    assert face_builds == []


# one vertex from each antipodal pair {0,1}, {2,3}, {4,5}
OCTAHEDRON = [(1 << a) | (1 << b) | (1 << c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]


def test_octahedron_settles_by_element_matchings(face_builds, chain_bases):
    facets = OCTAHEDRON
    for p in (2, 3):
        assert _union_homology(facets, p) == {2: 1}
    assert face_builds == []
    assert chain_bases == []


def test_equal_sized_facets_off_a_simplex_boundary(face_builds):
    # four triangles on the six pairs of {0..3}, triangle i holding the pairs
    # that contain i: n facets of size n - 1, but on more than n vertices
    pairs = list(combinations(range(4), 2))
    facets = [sum(1 << k for k, pair in enumerate(pairs) if i in pair) for i in range(4)]
    for p in (2, 3):
        assert _union_homology(facets, p) == {1: 3}
    assert face_builds == []


# the 6-vertex real projective plane: H_1 and H_2 are GF(2) only
RP2 = [sum(1 << int(v) - 1 for v in t) for t in "123 134 145 156 162 235 346 452 563 624".split()]


@pytest.fixture
def chain_bases(monkeypatch):
    """Records how many basis elements each chain complex handed to the ranks has."""
    counts = []
    original = oracle._chain_ranks
    monkeypatch.setattr(oracle, "_chain_ranks", lambda layers, p: counts.append(
        sum(len(layer) for layer in layers.values())) or original(layers, p))
    return counts


@pytest.fixture
def morse_flows(monkeypatch):
    """Records every face whose gradient flow the Morse differential asks for."""
    calls = []
    original = oracle._morse_flow
    monkeypatch.setattr(oracle, "_morse_flow", lambda face, *rest: calls.append(face)
                        or original(face, *rest))
    return calls


CYCLE17 = [1 << k | 1 << (k + 1) % 17 for k in range(17)]


@pytest.fixture
def matched_sides(monkeypatch):
    """Records, for every core settled by element matchings, the side it was
    matched on, ``"nerve"`` or ``"vertices"``, and the number of elements.

    A core transposes its facets into the sets of facets holding each
    vertex, which generate the nerve; the vertex side hands the matchings
    the transpose of those, so its tops are the latest transpose itself."""
    sides = []
    latest = [None]
    transpose, morse = oracle._transpose, oracle._morse_homology

    def on_transpose(masks):
        latest[0] = transpose(masks)
        return latest[0]

    def on_morse(tops, n, p):
        sides.append(("vertices" if tops is latest[0] else "nerve", n))
        return morse(tops, n, p)

    monkeypatch.setattr(oracle, "_transpose", on_transpose)
    monkeypatch.setattr(oracle, "_morse_homology", on_morse)
    return sides


CYCLE17 = [1 << k | 1 << (k + 1) % 17 for k in range(17)]


@pytest.mark.parametrize("facets, expected, full, side, morse", [
    (OCTAHEDRON, {2: {2: 1}, 3: {2: 1}, 5: {2: 1}}, 27, ("vertices", 6), False),
    (RP2, {2: {1: 1, 2: 1}, 3: {}, 5: {}}, 32, ("vertices", 6), True),
    (CYCLE17, {2: {1: 1}, 3: {1: 1}, 5: {1: 1}}, 35, ("nerve", 17), False),
], ids=["octahedron", "rp2", "17-cycle"])
def test_vertex_star_is_excised_before_the_ranks(
        chain_bases, matched_sides, morse_flows, facets, expected, full, side, morse):
    # no core peels, and none reaches the chain complex: each is matched on
    # its smaller side.  The octahedron (8 facets on 6 vertices) and RP^2 (10
    # on 6) are matched on their vertices, the octahedron settled by its
    # critical cells, RP^2, whose torsion leaves critical cells in dimensions
    # 1 and 2, by the Morse differential; the 17-cycle, with as many facets
    # as vertices, is matched on its nerve
    assert sum(len(layer) for layer in _faces_of_facets(facets).values()) == full
    for p in (2, 3, 5):
        assert _union_homology(facets, p) == expected[p]
    assert matched_sides == [side] * 3
    assert chain_bases == []
    assert bool(morse_flows) == morse


@st.composite
def ordered_families(draw):
    """An antichain of facets, and an order of the vertices of its union."""
    _, facets = draw(facet_families(max_vertices=9, max_facets=10))
    facets = _maximal_masks(facets)
    return facets, draw(st.permutations(list(_bits(_union(facets)))))


def local_tops(facets, order):
    """The facets on local bits: vertex order[j] becomes bit j."""
    return [sum((f >> v & 1) << j for j, v in enumerate(order)) for f in facets]


def critical_counts(facets, order):
    """Critical cells by dimension of the element matchings, for the vertices
    in ``order`` one after another, on the faces of ``facets``."""
    critical, _ = _element_matchings(local_tops(facets, order), len(order))
    return Counter(s.bit_count() - 1 for s in _bits(critical))


@given(ordered_families())
@example(([0], []))  # only the empty face
@example((OCTAHEDRON, list(range(6))))
@example((RP2, list(range(6))))
@settings(max_examples=300, deadline=None)
def test_vertex_morse_homology_is_the_ranks(family):
    # the Morse differential, read off the gradient flow, gives the ranks for
    # every vertex order; critical cells in no two adjacent dimensions leave
    # the Morse complex without a differential, over every field
    facets, order = family
    critical = critical_counts(facets, order)
    layers = _faces_of_facets(facets)
    for p in PRIMES:
        expected = _chain_ranks(layers, p)
        assert _morse_homology(local_tops(facets, order), len(order), p) == expected
        if all(d + 1 not in critical for d in critical):
            assert expected == critical


@given(ordered_families())
@example((RP2, list(range(6))))
@settings(max_examples=300, deadline=None)
def test_critical_cells_bound_the_ranks_and_keep_the_euler_characteristic(family):
    facets, order = family
    critical = critical_counts(facets, order)
    layers = _faces_of_facets(facets)
    for p in (2, 3):
        for d, rank in _chain_ranks(layers, p).items():
            assert critical.get(d, 0) >= rank
    assert (sum((-1) ** (d % 2) * c for d, c in critical.items())
            == sum((-1) ** (d % 2) * len(layer) for d, layer in layers.items()))


# a circle, though the element matchings leave a cancelling pair of critical
# cells in dimensions 1 and 2 beside its 1-cell; no vertex is peeled or collapsed
ADJACENT = [0b010111, 0b111100, 0b100011, 0b011001, 0b001110]


def test_adjacent_critical_cells_take_the_morse_differential(chain_bases, morse_flows):
    # every vertex but 5 lies in three facets, so the vertex matchings take
    # them in order, and the Morse differential cancels the pair
    order = list(range(6))
    assert critical_counts(ADJACENT, order) == {1: 2, 2: 1}
    for p in (2, 3, 5):
        assert _morse_homology(local_tops(ADJACENT, order), len(order), p) == {1: 1}
    assert morse_flows
    # on the nerve, the matchings over the facets in order leave one 1-cell;
    # in the reverse order they leave the cancelling pair beside it, and the
    # Morse differential cancels it
    for facets, morse in ((ADJACENT, False), (ADJACENT[::-1], True)):
        morse_flows.clear()
        for p in (2, 3, 5):
            assert _union_homology(facets, p) == {1: 1}
        assert bool(morse_flows) == morse
    assert chain_bases == []


CYCLE16 = [1 << k | 1 << (k + 1) % 16 for k in range(16)]


@st.composite
def nerve_families(draw):
    """An antichain of at most 16 facets on at most 9 vertices, not only the empty face."""
    _, facets = draw(facet_families(max_vertices=9, max_facets=16))
    facets = _maximal_masks(facets)
    assume(_union(facets))
    return facets


@contextmanager
def recorded(name):
    """Records the arguments and result of every call of an oracle function."""
    calls = []
    original = getattr(oracle, name)

    def record(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, name, record)
        yield calls


NERVE_EXAMPLES = (RP2, OCTAHEDRON, ADJACENT, ADJACENT[::-1], CYCLE16)


def nerve_examples(test):
    for facets in NERVE_EXAMPLES:
        test = example(facets)(test)
    return test


@given(nerve_families())
@nerve_examples
@settings(max_examples=300, deadline=None)
def test_nerve_route_matches_chain_complex(facets):
    # the peel hands the nerve what it leaves, and the nerve is also run on
    # the whole antichain, so cores with private vertices reach it too; so
    # is the vertex side, the transpose of the holders in the route's order,
    # since no family here has more than 20 vertices
    layers = _faces_of_facets(facets)
    holders = sorted(_transpose(facets), key=int.bit_count, reverse=True)
    for p in PRIMES:
        expected = _chain_ranks(layers, p)
        assert _union_homology(facets, p) == expected
        assert nerve_homology(facets, p) == expected
        assert _morse_homology(_transpose(holders), len(holders), p) == expected


@given(nerve_families())
@nerve_examples
@settings(max_examples=200, deadline=None)
def test_nerve_bitmap_holds_the_nerve_faces(facets):
    # the critical faces and both sides of every matched pair are the nerve's
    # faces, each once; the matching for j pairs a face missing j with its
    # union with j
    with recorded("_element_matchings") as calls:
        nerve_homology(facets, 2)
    [((_, n), (critical, steps))] = calls
    assert n == len(facets) == len(steps)
    faces = [critical]
    for j, low in enumerate(steps):
        assert all(not s >> j & 1 for s in _bits(low))
        faces += [low, low << (1 << j)]
    assert sorted(s for mask in faces for s in _bits(mask)) == sorted(nerve_faces(facets))


@given(nerve_families())
@nerve_examples
@settings(max_examples=200, deadline=None)
def test_nerve_critical_cells_keep_the_morse_inequalities(facets):
    with recorded("_element_matchings") as calls:
        nerve_homology(facets, 2)
    [(_, (critical, _))] = calls
    cells = Counter(s.bit_count() - 1 for s in _bits(critical))
    layers = _faces_of_facets(facets)
    top = max(layers)
    for p in (2, 3):
        ranks = _chain_ranks(layers, p)
        for d in range(-1, top + 1):
            # the strong form, which implies cells[d] >= ranks[d]: the
            # alternating sum up to d is the rank of the Morse differential
            # into dimension d
            assert sum((-1) ** (d - i) * (cells[i] - ranks.get(i, 0)) for i in range(-1, d + 1)) >= 0
    assert (sum((-1) ** (d % 2) * c for d, c in cells.items())
            == sum((-1) ** (d % 2) * len(layer) for d, layer in layers.items()))


# 16 facets on 11 vertices, none peeled, found by a search for long
# gradient paths: the nerve's critical cells lie in dimensions 2, 3 and 4,
# and a boundary face of a critical 3-cell flows through 14 faces.  The
# core itself is matched on its 11 vertices, so the tests take its nerve
DEEP = [1890, 1827, 870, 455, 1611, 1197, 1776, 1938, 311, 1720, 922, 347, 1055, 413, 1182,
        159]


def _recursion_depth():
    """The caller's depth as the recursion limit counts it, C calls included."""
    def probe(k):
        try:
            return probe(k + 1)
        except RecursionError:
            return k
    return sys.getrecursionlimit() - probe(1)


def test_morse_flow_does_not_recurse(morse_flows):
    expected = {p: _chain_ranks(_faces_of_facets(DEEP), p) for p in (2, 3)}
    assert expected == {2: {2: 3, 3: 2}, 3: {2: 3, 3: 2}}
    nerve_homology(DEEP, 5)  # fills the cache of the 2^16-bit masks first
    # a flow that recursed once per face on its path would pass this limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 10)
    try:
        ranks = {p: nerve_homology(DEEP, p) for p in (2, 3)}
    finally:
        sys.setrecursionlimit(limit)
    assert ranks == expected
    assert morse_flows


def test_face_masks_build_without_recursion():
    # the first 16-facet nerve builds the 2^16-bit masks of _subsets_holding;
    # built by recursion on the number of facets, they would pass this limit
    oracle._subsets_holding.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_recursion_depth() + 10)
    try:
        ranks = nerve_homology(DEEP, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert ranks == {2: 3, 3: 2}


@pytest.mark.parametrize("n", [16, 17, 20, 21])
def test_cores_past_16_vertices_take_the_chain_complex(chain_bases, matched_sides, n):
    # a cycle of n edges is its own core, with n facets on n vertices: it is
    # matched on its nerve up to MAX_LATTICE_GENERATORS = 20 elements, and
    # past that only the chain complex of its 2n + 1 faces is left
    facets = [1 << k | 1 << (k + 1) % n for k in range(n)]
    for p in (2, 3, 5):
        assert _union_homology(facets, p) == {1: 1}
    if n <= MAX_LATTICE_GENERATORS:
        assert (matched_sides, chain_bases) == ([("nerve", n)] * 3, [])
    else:
        assert (matched_sides, chain_bases) == ([], [2 * n + 1] * 3)


def test_core_on_30_vertices_still_answers(chain_bases, matched_sides):
    # one triangle per node of the prism over a 10-cycle, a cubic graph, on
    # the three edges at the node: 20 facets on 30 vertices and 111 faces,
    # matched on the nerve.  Each vertex lies in two triangles, which meet
    # nowhere else, so the union has the homotopy type of the graph:
    # 30 - 20 + 1 = 11 independent cycles
    edges = ([(k, (k + 1) % 10) for k in range(10)] + [(k, k + 10) for k in range(10)]
             + [(k + 10, (k + 1) % 10 + 10) for k in range(10)])
    facets = [sum(1 << e for e, edge in enumerate(edges) if node in edge) for node in range(20)]
    assert sum(len(layer) for layer in _faces_of_facets(facets).values()) == 111
    for p in (2, 3):
        assert _union_homology(facets, p) == {1: 11}
    assert matched_sides == [("nerve", 20)] * 2
    assert chain_bases == []


def cross_polytope(pairs):
    """Facets of the boundary of the cross-polytope, a sphere of dimension
    pairs - 1: one vertex from each antipodal pair {2k, 2k + 1}."""
    facets = [0]
    for k in range(pairs):
        facets = [f | 1 << (2 * k + s) for f in facets for s in (0, 1)]
    return facets


def test_face_cap_is_met_outside_the_vertex_star():
    # 2^10 facets on 20 vertices are matched on the vertices, with no face
    # built; 2^11 facets on 22 vertices leave only the chain complex, whose
    # 3^11 faces pass the cap
    for p in (2, 3):
        assert _union_homology(cross_polytope(10), p) == {9: 1}
    with pytest.raises(CapExceededError):
        _union_homology(cross_polytope(11), 2)


PRIMES = (2, 3, 5, 65521)


@given(facet_families())
@settings(max_examples=200, deadline=None)
def test_clearing_matches_uncleared_reference_on_complexes(family):
    _, facets = family
    layers = _faces_of_facets(facets)
    for p in PRIMES:
        assert _chain_ranks(layers, p) == uncleared_chain_ranks(layers, p)


@given(ideals(max_vars=8, max_gens=8))
@settings(max_examples=100, deadline=None)
def test_betti_table_matches_hochster_formula(ideal):
    for p in (2, 3, 5):
        assert dict(betti_table(ideal, FieldSpec(p)).entries) == hochster_betti(ideal, p)


def test_clearing_matches_uncleared_reference_on_taylor_strands():
    rng = random.Random(71)
    for _ in range(40):
        nv = rng.randint(4, 9)
        ideal = random_ideal(rng, nv, rng.randint(2, min(7, max_antichain(nv))))
        lcms = _subset_lcms(ideal)
        strands = {}
        for s in range(1 << ideal.num_generators):
            strands.setdefault(lcms[s], {}).setdefault(s.bit_count(), []).append(s)
        for layers in strands.values():
            for p in PRIMES:
                assert _chain_ranks(layers, p) == uncleared_chain_ranks(layers, p)


@pytest.fixture
def kernel_rows(monkeypatch):
    """Records how many rows each call of the rank kernel receives."""
    counts = []
    original = oracle._rank_sparse
    monkeypatch.setattr(oracle, "_rank_sparse",
                        lambda rows, p: counts.append(len(rows)) or original(rows, p))
    return counts


@pytest.mark.parametrize("facets", [[(1 << n) - 1] for n in range(2, 8)] + [OCTAHEDRON],
                         ids=[f"simplex{n}" for n in range(2, 8)] + ["octahedron"])
def test_clearing_skips_rows_pivoted_on_above(kernel_rows, facets):
    layers = _faces_of_facets(facets)
    for p in (2, 3):
        kernel_rows.clear()
        _chain_ranks(layers, p)
        # one call per dimension d with faces below it, from the top down
        expected = [len(layers[d]) - dense_rank(dense_boundary(layers, d + 1), p)
                    for d in sorted(layers, reverse=True) if d - 1 in layers]
        assert kernel_rows == expected
        assert sum(expected) < sum(len(layers[d]) for d in layers if d - 1 in layers)


def test_sphere_boundaries_have_top_homology():
    # boundary of the k-simplex is a (k-1)-sphere for k = 2..5
    for k in range(2, 6):
        verts = tuple(range(k + 1))
        facets = list(combinations(verts, k))
        c = SimplicialComplex.from_facets(verts, facets)
        expected = [0] * (k + 1)
        expected[k] = 1  # rank 1 in dimension k - 1, list starts at dim -1
        assert reduced_homology_ranks(c, GF2) == expected
        assert chain_complex_ranks(c, GF3) == expected


@pytest.fixture
def homology_calls(monkeypatch):
    """Records every facet list whose union homology ``betti_table`` takes."""
    calls = []
    original = oracle._union_homology
    monkeypatch.setattr(oracle, "_union_homology",
                        lambda facets, p: calls.append(facets) or original(facets, p))
    return calls


class TestSettledDegrees:
    """A degree b whose Taylor strand holds only subsets of level(b) and
    level(b) + 1 generators is settled from the lattice's divisor count and
    signed count, with no complex built."""

    def test_triangle_top_has_two_syzygies(self, homology_calls):
        # the three pairs of (ab, bc, ac) each have lcm abc, and so do all three
        ideal = word_ideal("ab bc ac")
        top = mono(ideal, "abc").mask
        assert _lattice(ideal)[top] == (2, 0b111, 2)
        assert subset_scan_strands(ideal)[top] == (2, 3, 2)
        for f in (GF2, GF3, GF5):
            assert degree_names(betti_table(ideal, f))[(2, ("a", "b", "c"))] == 2
        assert homology_calls == []

    def test_one_pair_at_the_top_leaves_no_entry(self, homology_calls):
        # of the pairs of (ab, bc, cd) only {ab, cd} has lcm abcd: r = 1
        ideal = word_ideal("ab bc cd")
        top = mono(ideal, "abcd").mask
        assert _lattice(ideal)[top] == (2, 0b111, 0)
        assert subset_scan_strands(ideal)[top] == (2, 3, 0)
        for f in (GF2, GF3, GF5):
            assert all(b != top for _, b in betti_table(ideal, f).entries)
        assert homology_calls == []

    @pytest.mark.parametrize("text, degrees, calls", [
        ("\n".join(f"a{k:02d} b{k:02d}" for k in range(8)), 255, 0),  # 8 disjoint edges
        ("\n".join(f"x{k} x{(k + 1) % 9}" for k in range(9)), 157, 28),  # the cycle C9
        ("\n".join([f"g{r}{c} g{r}{c + 1}" for r in range(3) for c in range(2)]
                   + [f"g{r}{c} g{r + 1}{c}" for r in range(2) for c in range(3)]),
         249, 100),  # the 3 x 3 grid
    ], ids=["disjoint-edges", "cycle9", "grid3x3"])
    def test_union_homology_calls(self, homology_calls, text, degrees, calls):
        ideal = parse_ideal(text)
        for f in (GF2, GF3):
            betti_table(ideal, f)
        assert len(_lattice(ideal)) == degrees
        assert len(homology_calls) == 2 * calls

    @given(ideals(max_vars=10, max_gens=10))
    @settings(max_examples=200, deadline=None)
    def test_settled_degrees_match_union_homology(self, ideal):
        # the route the settled degrees no longer take, over every field
        settled = [b for b, (k, divisors, _) in _lattice(ideal).items()
                   if divisors.bit_count() <= k + 1]
        for p in PRIMES:
            entries = betti_table(ideal, FieldSpec(p)).entries
            for b in settled:
                facets = [b & ~g for g in ideal.generator_masks if g & ~b == 0]
                expected = {d + 2: r for d, r in _union_homology(facets, p).items()}
                assert {i: r for (i, m), r in entries.items() if m == b} == expected


# RP^2 on vertices 0..5 beside a 10-cycle on vertices 6..15: 20 facets on 16
# vertices, with no vertex peeled
RP2_AND_CYCLE10 = RP2 + [1 << 6 + k | 1 << 6 + (k + 1) % 10 for k in range(10)]


def test_vertex_side_takes_the_morse_differential(face_builds, chain_bases, morse_flows):
    # more facets than vertices, so the core is matched on its 16 vertices;
    # the torsion of RP^2 leaves critical cells in adjacent dimensions
    assert _union_homology(RP2_AND_CYCLE10, 2) == {0: 1, 1: 2, 2: 1}
    for p in (3, 5):
        assert _union_homology(RP2_AND_CYCLE10, p) == {0: 1, 1: 1}
    assert face_builds == []
    assert chain_bases == []
    assert morse_flows


def test_vertex_side_takes_vertices_by_falling_facet_count():
    # the 10-cycle on vertices 0..9 and RP^2 on 10..15: the matchings take
    # RP^2's vertices, each in 5 facets, first, from the lowest up, then the
    # cycle's, each in 2
    facets = [1 << k | 1 << (k + 1) % 10 for k in range(10)] + [f << 10 for f in RP2]
    with recorded("_element_matchings") as calls:
        assert _union_homology(facets, 2) == {0: 1, 1: 2, 2: 1}
    [((tops, n), _)] = calls
    order = [*range(10, 16), *range(10)]
    assert (n, sorted(tops)) == (16, sorted(local_tops(facets, order)))


# RP^2 beside a 14-cycle on vertices 6..19: 24 facets on 20 vertices, as
# many vertices as the matchings take
RP2_AND_CYCLE14 = RP2 + [1 << 6 + k | 1 << 6 + (k + 1) % 14 for k in range(14)]


def test_vertex_side_takes_20_vertices(face_builds, chain_bases, matched_sides, morse_flows):
    assert _union_homology(RP2_AND_CYCLE14, 2) == {0: 1, 1: 2, 2: 1}
    assert _union_homology(RP2_AND_CYCLE14, 3) == {0: 1, 1: 1}
    assert len(morse_flows) == 2 * 7  # the critical cells' faces, per prime
    assert matched_sides == [("vertices", 20)] * 2
    assert face_builds == []
    assert chain_bases == []


def test_strong_collapse_hands_back_to_the_peel(face_builds, chain_bases, matched_sides):
    # the boundary of the 17-simplex on vertices 0..17, and beside each facet
    # missing i and i + 1 a vertex 18 + i of its own: no vertex is private,
    # and with 36 facets on 36 vertices neither side fits the matchings.  Only
    # the chain complex of all the faces is left, and the facet opposite a
    # vertex alone has 2^17 faces, past the cap
    full = (1 << 18) - 1
    facets = _maximal_masks([full ^ 1 << i for i in range(18)]
                            + [(full ^ 1 << i ^ 1 << (i + 1) % 18) | 1 << (18 + i)
                               for i in range(18)])
    assert len(facets) == 36 == _union(facets).bit_count()
    for p in (2, 3):
        with pytest.raises(CapExceededError):
            _union_homology(facets, p)
    assert face_builds == [facets] * 2
    assert matched_sides == []
    assert chain_bases == []


@st.composite
def wide_families(draw):
    """An antichain of 17 to 24 facets on at most 9 vertices: k-sets, which
    form an antichain, and a few facets of any size, maximalized."""
    n = draw(st.integers(min_value=7, max_value=9))
    k = draw(st.sampled_from([k for k in range(n) if comb(n, k) >= 17]))
    pool = [sum(1 << v for v in c) for c in combinations(range(n), k)]
    facets = draw(st.lists(st.sampled_from(pool), min_size=17, max_size=24, unique=True))
    facets += draw(st.lists(st.integers(1, (1 << n) - 1), max_size=3))
    facets = _maximal_masks(facets)
    assume(len(facets) >= 17)
    return facets


@given(wide_families())
@example(RP2_AND_CYCLE10)
@example(RP2_AND_CYCLE14)
@settings(max_examples=200, deadline=None)
def test_cores_past_16_facets_match_chain_complex(facets):
    layers = _faces_of_facets(facets)
    for p in PRIMES:
        assert _union_homology(facets, p) == _chain_ranks(layers, p)


def test_betti_table_past_16_facets_matches_hochster_formula(matched_sides):
    # ideals of 17 to 20 generators of one size on 8 variables: the top degree
    # has a facet per generator and no private vertex, so it is matched on
    # its 8 vertices
    rng = random.Random(17)
    alphabet = Alphabet(variable_names(8))
    for size in (3, 4, 3, 4):
        pool = [sum(1 << v for v in c) for c in combinations(range(8), size)]
        gens = rng.sample(pool, rng.randint(17, 20))
        ideal = MonomialIdeal(alphabet, tuple(sorted(gens, key=_support_key)))
        matched_sides.clear()
        for p in (2, 3, 5):
            assert dict(betti_table(ideal, FieldSpec(p)).entries) == hochster_betti(ideal, p)
        assert matched_sides.count(("vertices", 8)) >= 3


@pytest.fixture(scope="module")
def draws_at_the_cap():
    return draws_at_the_lattice_cap()


@pytest.mark.parametrize("field", [GF2, GF3], ids=["gf2", "gf3"])
def test_tables_at_the_lattice_cap_keep_the_euler_characteristic(draws_at_the_cap, field):
    # every core of a 20-generator ideal has at most 20 facets, so every
    # draw answers.  At each lattice degree b the alternating sum of the
    # ranks is the lattice's signed count f(b), and the (reg, pd) scan
    # agrees with the table
    for ideal in draws_at_the_cap:
        table = betti_table(ideal, field)
        lattice = _lattice(ideal)
        euler = dict.fromkeys(lattice, 0)
        for (i, b), rank in table.entries.items():
            if b:
                euler[b] += -rank if i & 1 else rank
        assert euler == {b: sign for b, (_, _, sign) in lattice.items()}
        assert _extremes(ideal, field) == (table.regularity, table.projective_dimension)


# the Stanley-Reisner ideal of RP2: all edges are faces, so the minimal
# non-faces are the ten triangles that are not facets
RP2_STANLEY_REISNER = MonomialIdeal(Alphabet(variable_names(6)), tuple(sorted(
    (sum(1 << v for v in t) for t in combinations(range(6), 3)
     if sum(1 << v for v in t) not in RP2), key=_support_key)))


class TestExtremes:
    """reg and pd by the scan that skips the hard degrees which can raise
    neither equal those of the full table."""

    @staticmethod
    def table_extremes(ideal, field):
        table = betti_table(ideal, field)
        return table.regularity, table.projective_dimension

    def test_matches_the_table_on_random_ideals(self):
        rng = random.Random(71)
        for _ in range(2000):
            nv = rng.randint(4, 14)
            ideal = random_ideal(rng, nv, rng.randint(3, min(nv, 10)))
            for field in (GF2, GF3):
                assert _extremes(ideal, field) == self.table_extremes(ideal, field)

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_matches_the_table_on_the_corpus(self, entry):
        ideal = parse_ideal(entry.ideal_text)
        for field in (GF2, GF3):
            assert _extremes(ideal, field) == self.table_extremes(ideal, field)

    def test_rp2_depends_on_the_field(self):
        assert _extremes(RP2_STANLEY_REISNER, GF2) == (3, 4) == self.table_extremes(
            RP2_STANLEY_REISNER, GF2)
        assert _extremes(RP2_STANLEY_REISNER, GF3) == (2, 3) == self.table_extremes(
            RP2_STANLEY_REISNER, GF3)
        assert regularity(RP2_STANLEY_REISNER, GF2) == 3
        assert projective_dimension(RP2_STANLEY_REISNER, GF3) == 3

    def test_top_cell_bounds_the_homological_degree(self):
        # the one hard degree abcde has level 2 and four divisors: it can carry
        # Betti numbers in degrees 2 and 3 only, and the settled degrees already
        # reach reg 3 (at bcde) and pd 3 (at abce), so no homology is taken
        ideal = word_ideal("ab ac ae bcde")
        assert _lattice(ideal)[mono(ideal, "abcde").mask] == (2, 0b1111, 1)
        with counting_union_homology() as calls:
            assert _extremes(ideal, GF2) == (3, 3) == self.table_extremes(ideal, GF2)
            assert calls[0] == 1  # the table's
        with counting_union_homology() as calls:
            _extremes(ideal, GF3)
        assert calls[0] == 0

    def test_level_bounds_the_regularity(self):
        # the hard degree abcdef, level 2, carries beta_{2,abcdef} = 1: reg 4,
        # which no settled degree reaches
        ideal = word_ideal("abc abd abe cdef")
        assert _lattice(ideal)[mono(ideal, "abcdef").mask] == (2, 0b1111, 1)
        assert degree_names(betti_table(ideal, GF2))[(2, tuple("abcdef"))] == 1
        with counting_union_homology() as calls:
            assert _extremes(ideal, GF2) == (4, 3)
        assert calls[0] == 1
