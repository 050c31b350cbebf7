import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_boundary,
    dense_rank,
    faces,
    has_face,
    restart_strong_collapse,
    uncleared_chain_ranks,
    word_ideal,
)
from hyperreg import oracle
from hyperreg.hypergraph import build_hypergraph, is_saturated
from hyperreg.monomials import Monomial, alexander_dual
from hyperreg.oracle import (
    GF2,
    GF3,
    CapExceededError,
    FieldSpec,
    SimplicialComplex,
    _boundary_rank,
    _chain_ranks,
    _faces_of_facets,
    _maximal_masks,
    _rank_sparse,
    _strong_collapse,
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
from hyperreg.randgen import max_antichain, random_ideal

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
    """The sparse kernel against dense elimination on seeded random matrices."""

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
            assert len(_boundary_rank(rows, p)) == dense_rank(self.dense(rows, ncols, p), p)

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
            assert len(_boundary_rank([], p)) == 0
            assert len(_boundary_rank([(0, 0)] * 3, p)) == 0
            assert len(_rank_sparse([{}, {}], p)) == 0

    def test_characteristic_matters(self):
        # rows e0+e1, e1+e2, e0+e2: dependent over GF(2) only
        rows = [(0b011, 0), (0b110, 0), (0b101, 0)]
        assert len(_boundary_rank(rows, 2)) == 2
        assert len(_boundary_rank(rows, 3)) == 3


class TestSimplicialComplex:
    def test_from_faces_validates_downward_closure(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_faces("ab", [("a", "b")])

    def test_from_facets_closes_downward(self):
        c = SimplicialComplex.from_facets("abc", [("a", "b"), ("c",)])
        assert c.num_faces == 5  # empty, a, b, c, ab
        assert has_face(c, ())
        assert has_face(c, ("a", "b"))
        assert not has_face(c, ("a", "c"))

    def test_face_cap_is_hard_error(self):
        with pytest.raises(CapExceededError):
            SimplicialComplex.from_facets(range(17), [tuple(range(17))])


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


class TestHomologyConventions:
    def test_two_isolated_points(self):
        c = SimplicialComplex.from_facets("ab", [("a",), ("b",)])
        for f in (GF2, GF3):
            assert reduced_homology_ranks(c, f) == [0, 1]
            assert reduced_homology_ranks(c, f, precollapse=False) == [0, 1]

    def test_hollow_triangle_is_a_circle(self):
        c = SimplicialComplex.from_facets(
            "abc", [("a", "b"), ("a", "c"), ("b", "c")])
        for f in (GF2, GF3, GF5):
            assert reduced_homology_ranks(c, f) == [0, 0, 1]
            assert reduced_homology_ranks(c, f, precollapse=False) == [0, 0, 1]

    def test_empty_face_only_complex(self):
        c = SimplicialComplex((), {-1: (0,)})
        assert reduced_homology_ranks(c, GF2) == [1]

    def test_void_complex_has_no_homology(self):
        c = SimplicialComplex((), {})
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

    def test_cached_entries_are_read_only(self):
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
        assert [t.rank(i) for i in range(3)] == [1, 2, 1]
        assert str(t.multidegree(0b11)) == "a*b"
        terms = t.differential(0b11)
        alphabet = t.ideal.alphabet
        assert terms == [
            (0b10, -1, alphabet.mask_of("a")), (0b01, 1, alphabet.mask_of("b"))]

    def test_triangle_top_multidegree(self):
        t = taylor_complex(word_ideal("ab ac bc"))
        assert t.rank(3) == 1
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
        assert (reduced_homology_ranks(c, f, precollapse=True)
                == reduced_homology_ranks(c, f, precollapse=False))


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


@given(facet_families(max_vertices=9, max_facets=10))
@settings(max_examples=300, deadline=None)
def test_pass_collapse_matches_restart_reference(family):
    _, facets = family
    facets = _maximal_masks(facets)
    core = _strong_collapse(facets)
    reference = restart_strong_collapse(facets)
    # strong-collapse cores are unique up to isomorphism
    assert _union(core).bit_count() == _union(reference).bit_count()
    assert sorted(f.bit_count() for f in core) == sorted(f.bit_count() for f in reference)
    for p in (2, 3):
        assert _union_homology(facets, p) == _chain_ranks(_faces_of_facets(reference), p)


@pytest.fixture
def face_builds(monkeypatch):
    """Records every facet list that _union_homology expands into faces."""
    calls = []
    original = oracle._faces_of_facets
    monkeypatch.setattr(oracle, "_faces_of_facets",
                        lambda facets: calls.append(facets) or original(facets))
    return calls


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


def test_octahedron_goes_through_chain_complex(face_builds):
    facets = OCTAHEDRON
    assert sorted(_strong_collapse(facets)) == sorted(facets)
    for p in (2, 3):
        assert _union_homology(facets, p) == {2: 1}
    assert len(face_builds) == 2


def test_equal_sized_facets_off_a_simplex_boundary(face_builds):
    # four triangles on the six pairs of {0..3}, triangle i holding the pairs
    # that contain i: n facets of size n - 1, but on more than n vertices
    pairs = list(combinations(range(4), 2))
    facets = [sum(1 << k for k, pair in enumerate(pairs) if i in pair) for i in range(4)]
    assert sorted(_strong_collapse(facets)) == sorted(facets)
    for p in (2, 3):
        assert _union_homology(facets, p) == {1: 3}
    assert len(face_builds) == 2


PRIMES = (2, 3, 5, 65521)


@given(facet_families())
@settings(max_examples=200, deadline=None)
def test_clearing_matches_uncleared_reference_on_complexes(family):
    _, facets = family
    layers = _faces_of_facets(facets)
    for p in PRIMES:
        assert _chain_ranks(layers, p) == uncleared_chain_ranks(layers, p)


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
    original = oracle._boundary_rank
    monkeypatch.setattr(oracle, "_boundary_rank",
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
        assert reduced_homology_ranks(c, GF3, precollapse=False) == expected
