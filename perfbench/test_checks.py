"""Tests of the benchmark's own checkers on tables and witnesses worked by hand.

    python3 -m pytest perfbench/test_checks.py
"""

from checks import (check_betti, check_bounds, check_fill, check_matching, check_sandwich,
                    closed_form_reg, masks_of, min_subset_closure, regularity,
                    signed_lcm_closure)

A, B, C, D = 1, 2, 4, 8

# R/I for I = (ab, bc), (ab, ac, bc) and (ab, cd), resolved by hand
PATH3 = {(0, 0): 1, (1, A | B): 1, (1, B | C): 1, (2, A | B | C): 1}
TRIANGLE = {(0, 0): 1, (1, A | B): 1, (1, A | C): 1, (1, B | C): 1, (2, A | B | C): 2}
TWO_EDGES = {(0, 0): 1, (1, A | B): 1, (1, C | D): 1, (2, A | B | C | D): 1}


def test_signed_closure_by_hand():
    assert signed_lcm_closure([A | B, B | C]) == {0: 1, A | B: -1, B | C: -1, A | B | C: 1}
    # the three pairs and the triple of the triangle all have lcm abc
    assert signed_lcm_closure([A | B, A | C, B | C])[A | B | C] == 3 - 1


def test_min_subset_closure_by_hand():
    assert min_subset_closure([A | B, B | C, C | D]) == {
        A | B: 1, B | C: 1, C | D: 1, A | B | C: 2, B | C | D: 2, A | B | C | D: 2}


def test_hand_tables_pass():
    assert check_betti([A | B, B | C], PATH3) == []
    assert check_betti([A | B, A | C, B | C], TRIANGLE) == []
    assert check_betti([A | B, C | D], TWO_EDGES) == []


def test_altered_tables_are_rejected():
    assert check_betti([A | B, B | C], {**PATH3, (2, A | B | C): 2})
    assert check_betti([A | B, A | C, B | C], {**TRIANGLE, (3, A | B | C): 1})
    missing = dict(TWO_EDGES)
    del missing[(1, C | D)]
    assert check_betti([A | B, C | D], missing)
    assert check_betti([A | B, C | D], {**TWO_EDGES, (0, 0): 2})
    # moving a rank to another degree keeps the totals but not the closure
    moved = {k: v for k, v in PATH3.items() if k != (2, A | B | C)}
    assert check_betti([A | B, B | C], {**moved, (2, A | B | C | D): 1})


def test_closed_forms_match_hand_tables():
    assert closed_form_reg("path", 3) == regularity(PATH3) == 1
    assert closed_form_reg("cycle", 3) == regularity(TRIANGLE) == 1
    assert closed_form_reg("edges", 2) == regularity(TWO_EDGES) == 2
    assert closed_form_reg("veronese", 302) == regularity(TRIANGLE) == 1


def test_closed_forms_small_cases():
    # P_2 is one edge, P_5 has the induced matching {12, 45}, C_4 is K_{2,2},
    # C_5 the pentagon, C_6 has two induced disjoint edges
    assert [closed_form_reg("path", n) for n in (2, 3, 4, 5, 8)] == [1, 1, 1, 2, 3]
    assert [closed_form_reg("cycle", n) for n in (3, 4, 5, 6, 8)] == [1, 1, 2, 2, 3]
    assert closed_form_reg("veronese", 402) == 1  # all quadrics on four variables
    assert closed_form_reg("veronese", 303) == 2  # the single cubic abc
    assert closed_form_reg("random", 0) is None


def _report(x, v, fill=None, match=None, taylor=None, upper=None, lower=None):
    methods = [
        {"id": "taylor_bound", "applicable": taylor is not None, "value": taylor},
        {"id": "fill_bound", "applicable": fill is not None,
         "value": None if fill is None else fill[0],
         "witness": None if fill is None else {"t": fill[1], "fill_set": fill[2]}},
        {"id": "matching_lower", "applicable": match is not None,
         "value": None if match is None else match[0],
         "witness": None if match is None else {"closed_vertices": match[1]}},
    ]
    return {"hypergraph": {"X": x, "V": v}, "methods": methods,
            "best_upper": {"id": "fill_bound", "value": upper},
            "best_lower": None if lower is None else {"id": "matching_lower", "value": lower}}


TRI_GENS = masks_of([["a", "b"], ["a", "c"], ["b", "c"]], ["a", "b", "c"])


def test_fill_witness_by_hand():
    # every triangle vertex is open and the open graph is a triangle: t = 2
    good = _report(3, 3, fill=(2, 2, [1, 2]), taylor=1, upper=1)
    assert check_bounds(TRI_GENS, good) == []
    assert check_fill(TRI_GENS, _report(3, 3, fill=(1, 1, [1])))
    assert check_fill(TRI_GENS, _report(3, 3, fill=(2, 1, [1, 2])))
    assert check_fill(TRI_GENS, _report(3, 3, fill=(2, 2, [1, 1])))
    assert check_bounds(TRI_GENS, _report(3, 3, fill=(2, 2, [1, 2]), taylor=2))
    assert check_bounds(TRI_GENS, _report(4, 3, fill=(3, 2, [1, 2]), taylor=1))


# closed 1 = p e, closed 2 = q f, open 3 = e f; with g, vertices 1 and 2 touch
ONE_DIM = [["p", "e"], ["q", "f"], ["e", "f"]]
TOUCHING = [["p", "e", "g"], ["q", "f", "g"], ["e", "f"]]


def test_matching_witness_by_hand():
    gens = masks_of(ONE_DIM, ["e", "f", "p", "q"])
    assert check_matching(gens, _report(4, 3, match=(1, [1]))) == []
    assert check_matching(gens, _report(4, 3, match=(1, [3])))
    assert check_matching(gens, _report(4, 3, match=(1, [])))
    assert check_matching(gens, _report(4, 3, match=(2, [2])))
    touching = masks_of(TOUCHING, ["e", "f", "g", "p", "q"])
    assert check_matching(touching, _report(5, 3, match=(2, [1]))) == []
    assert check_matching(touching, _report(5, 3, match=(2, [1, 2])))


def test_sandwich():
    report = _report(3, 3, fill=(2, 2, [1, 2]), taylor=1, upper=1)
    assert check_sandwich(report, 1) == []
    assert check_sandwich(report, 2)
    assert check_sandwich({**report, "best_upper": {"id": "fill_bound", "value": 2}}, 1)
    lowered = _report(4, 3, match=(1, [1]), upper=1, lower=1, fill=(1, 0, []))
    assert check_sandwich(lowered, 1) == []
    assert check_sandwich(lowered, 0)
