"""Text-format serializers and parsers: canonical round-trips and errors."""

from __future__ import annotations

import random

import pytest

from ashg import (
    AshgInstance,
    Partition,
    TreeDecomposition,
    heuristic_decompose,
    parse_cnf,
    parse_decomposition,
    parse_instance,
    parse_int_list,
    parse_partition,
    serialize_decomposition,
    serialize_instance,
    serialize_partition,
)
from ashg.formats import MAX_CNF_VARIABLES
from helpers import suite_instance


class TestInstanceFormat:
    def test_canonical_form(self):
        inst = AshgInstance(3, [(2, 1, -4), (1, 2, 1), (1, 3, 0)])
        assert serialize_instance(inst) == (
            "p ashg 3 3\na 1 2 1\na 1 3 0\na 2 1 -4\n"
        )

    def test_round_trip_is_byte_exact(self):
        rng = random.Random(3)
        for t in range(50):
            inst = suite_instance(rng, t, n_max=8)
            text = serialize_instance(inst)
            again = parse_instance(text)
            assert serialize_instance(again) == text
            assert again.n == inst.n and dict(again.arcs) == dict(inst.arcs)

    def test_comments_and_blank_lines_skipped(self):
        text = "c generated\n\np ashg 2 1\nc middle\na 1 2 5\n\n"
        inst = parse_instance(text)
        assert inst.n == 2 and inst.weight(1, 2) == 5

    def test_missing_header(self):
        with pytest.raises(ValueError, match="p ashg"):
            parse_instance("a 1 2 3\n")

    def test_arc_count_mismatch(self):
        with pytest.raises(ValueError, match="promises 2 arcs"):
            parse_instance("p ashg 2 2\na 1 2 5\n")

    def test_bad_arc_line(self):
        with pytest.raises(ValueError, match="a <u> <v> <w>"):
            parse_instance("p ashg 2 1\na 1 2\n")

    def test_non_integer_weight(self):
        with pytest.raises(ValueError, match="not an integer"):
            parse_instance("p ashg 2 1\na 1 2 x\n")

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValueError):
            parse_instance("p ashg 2 2\na 1 2 5\na 1 2 6\n")

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            parse_instance("p ashg 2 1\na 1 3 5\n")

    def test_empty_instance(self):
        text = "p ashg 0 0\n"
        assert serialize_instance(parse_instance(text)) == text


class TestPartitionFormat:
    def test_canonical_form(self):
        assert serialize_partition(Partition([1, 2, 1])) == (
            "s part 3 2\n1 1\n2 2\n3 1\n"
        )

    def test_round_trip_is_byte_exact(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(0, 9)
            part = Partition([rng.randint(1, max(1, n)) for _ in range(n)])
            text = serialize_partition(part)
            assert serialize_partition(parse_partition(text)) == text

    def test_parse_normalizes_class_ids(self):
        part = parse_partition("s part 3 2\n1 7\n2 7\n3 -1\n")
        assert part == Partition([1, 1, 2])

    def test_vertex_order_free(self):
        part = parse_partition("s part 3 2\n3 1\n1 2\n2 1\n")
        assert part == Partition([1, 2, 2])

    def test_missing_vertex(self):
        with pytest.raises(ValueError, match="no class assignment"):
            parse_partition("s part 3 1\n1 1\n2 1\n")

    def test_duplicate_vertex(self):
        with pytest.raises(ValueError, match="assigned twice"):
            parse_partition("s part 2 1\n1 1\n1 1\n")

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError, match="promises 3 classes"):
            parse_partition("s part 2 3\n1 1\n2 2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            parse_partition("s part 2 1\n1 1\n5 1\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="s part"):
            parse_partition("1 1\n")

    def test_negative_vertex_count_refused_at_the_header(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
            parse_partition("s part -1 0\n")


class TestDecompositionFormat:
    def test_canonical_form(self):
        td = TreeDecomposition({1: [2, 1], 2: [3, 1]}, [(1, 2)])
        assert serialize_decomposition(td, 3) == (
            "s td 2 2 3\nb 1 1 2\nb 2 1 3\n1 2\n"
        )

    def test_vertex_count_is_the_given_one(self):
        # vertex 5 is in no bag: n comes from the caller, not from the bags
        td = TreeDecomposition({1: [4, 2]}, [])
        assert serialize_decomposition(td, 5).startswith("s td 1 2 5\n")

    def test_round_trip_is_byte_exact(self):
        rng = random.Random(23)
        for t in range(40):
            inst = suite_instance(rng, t, n_max=8)
            td = heuristic_decompose(inst)
            text = serialize_decomposition(td, inst.n)
            again = parse_decomposition(text)
            assert serialize_decomposition(again, inst.n) == text

    def test_bag_ids_must_be_dense(self):
        with pytest.raises(ValueError, match="bag ids"):
            parse_decomposition("s td 2 1 2\nb 1 1\nb 3 2\n1 3\n")

    def test_duplicate_bag_rejected(self):
        with pytest.raises(ValueError, match="defined twice"):
            parse_decomposition("s td 2 1 1\nb 1 1\nb 1 1\n")

    def test_max_bag_size_cross_checked(self):
        with pytest.raises(ValueError, match="max bag size"):
            parse_decomposition("s td 1 3 2\nb 1 1 2\n")

    def test_bag_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            parse_decomposition("s td 1 1 2\nb 1 7\n")

    def test_edge_to_unknown_bag_rejected(self):
        with pytest.raises(ValueError):
            parse_decomposition("s td 2 1 2\nb 1 1\nb 2 2\n1 5\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError, match="bag or edge"):
            parse_decomposition("s td 1 1 1\nb 1 1\nx y z\n")

    def test_bag_line_without_id_rejected(self):
        with pytest.raises(ValueError, match="bag line needs an id"):
            parse_decomposition("s td 1 1 1\nb\n")

    def test_negative_vertex_count_refused_at_the_header(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative, got -1$"):
            parse_decomposition("s td 1 0 -1\nb 1\n")

    def test_non_tree_rejected_by_the_parser(self):
        # the type's own message, before any axiom is checked
        with pytest.raises(ValueError, match=r"^tree is not connected$"):
            parse_decomposition("s td 4 1 1\nb 1 1\nb 2 1\nb 3 1\nb 4 1\n1 2\n2 3\n1 3\n")


class TestCnfFormat:
    def test_basic_parse(self):
        phi = parse_cnf("c sample\np cnf 3 2\n1 -2 3 0\n2 0\n")
        assert phi.num_vars == 3
        assert phi.clauses == ((1, -2, 3), (2, 2, 2))

    def test_clause_spanning_lines(self):
        phi = parse_cnf("p cnf 3 1\n1\n-2\n3 0\n")
        assert phi.clauses == ((1, -2, 3),)

    def test_unterminated_clause(self):
        with pytest.raises(ValueError, match="0-terminated"):
            parse_cnf("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ValueError, match="promises 2 clauses"):
            parse_cnf("p cnf 2 2\n1 0\n")

    def test_oversized_clause_rejected(self):
        with pytest.raises(ValueError):
            parse_cnf("p cnf 4 1\n1 2 3 4 0\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="p cnf"):
            parse_cnf("1 0\n")

    def test_variable_count_limit(self):
        top = MAX_CNF_VARIABLES
        assert parse_cnf(f"p cnf {top} 1\n1 -{top} 0\n").num_vars == top
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_cnf(f"p cnf {top + 1} 1\n1 0\n")


class TestIntListFormat:
    def test_parse_with_comments(self):
        assert parse_int_list("c assignment\n1 0\n1\n") == [1, 0, 1]

    def test_empty(self):
        assert parse_int_list("c nothing\n") == []

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            parse_int_list("1 x\n")
