import itertools
import random

import networkx as nx
import pytest

from treedom import (
    EmptyInputError,
    NotATreeError,
    ParseError,
    TooLargeError,
    Tree,
    VertexOutOfRangeError,
    canonical_code,
    center,
    diameter,
    distance,
    distance_matrix,
    is_isomorphic,
    parse_edge_list,
    parse_graph6,
    path,
    q_tree,
    random_tree,
    serialize_edge_list,
    serialize_graph6,
    star,
    structure,
)
from treedom.trees import GRAPH6_MAX_N
from conftest import trees_of_order


class TestConstruction:
    def test_valid_tree(self):
        t = Tree(4, ((0, 1), (2, 1), (2, 3)))
        assert t.edges == ((0, 1), (1, 2), (2, 3))
        assert t.adj == ((1,), (0, 2), (1, 3), (2,))

    def test_single_vertex(self):
        t = Tree(1)
        assert t.n == 1 and t.edges == ()

    @pytest.mark.parametrize(
        "n,edges",
        [
            (3, ((0, 1), (1, 2), (2, 0))),  # cycle
            (4, ((0, 1), (2, 3))),  # wrong edge count
            (3, ((0, 1), (0, 1))),  # duplicate
            (3, ((0, 0), (1, 2))),  # loop
            (3, ((0, 1), (1, 5))),  # out of range
        ],
    )
    def test_invalid(self, n, edges):
        with pytest.raises(NotATreeError):
            Tree(n, edges)

    def test_without_pendant(self):
        t = path(5)
        sub, m = t.without({4})
        assert sub.n == 4 and m == {0: 0, 1: 1, 2: 2, 3: 3}
        with pytest.raises(NotATreeError):
            t.without({2})  # disconnects


class TestEdgeListFormat:
    def test_parse_p4(self):
        t = parse_edge_list("0 1\n1 2\n2 3")
        assert is_isomorphic(t, path(4))

    def test_comments_and_blanks(self):
        t = parse_edge_list("# a path\n\n0 1\n# middle\n1 2\n")
        assert t.n == 3

    def test_disconnected(self):
        with pytest.raises(NotATreeError):
            parse_edge_list("0 1\n2 3")

    def test_cycle(self):
        with pytest.raises(NotATreeError):
            parse_edge_list("0 1\n1 2\n2 0")

    def test_gap_ids_rejected(self):
        with pytest.raises(NotATreeError):
            parse_edge_list("0 2")

    def test_duplicate_edge(self):
        with pytest.raises(NotATreeError):
            parse_edge_list("0 1\n1 0")

    @pytest.mark.parametrize(
        "text", ["0", "0 1 2", "a b", "0 -1", "\u0660 1\n1 2\n"]
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_edge_list(text)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_edge_list("# only a comment\n")

    def test_round_trip(self):
        for n in range(2, 10):
            for t in trees_of_order(n):
                assert parse_edge_list(serialize_edge_list(t)).edges == t.edges


class TestGraph6:
    def test_p4_string(self):
        # "Ch" encodes the path 0-1-2-3; "Cs" is the 4-vertex star
        assert parse_graph6("Ch").edges == ((0, 1), (1, 2), (2, 3))
        assert is_isomorphic(parse_graph6("Cs"), star(4))

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<Ch").n == 4

    def test_triangle_rejected(self):
        with pytest.raises(NotATreeError):
            parse_graph6("Bw")  # K_3

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_graph6("")

    @pytest.mark.parametrize("data", ["C\u00e9", b"C\xc3\xa9", "\u00a0Ch"])
    def test_non_ascii_rejected(self, data):
        with pytest.raises(ParseError):
            parse_graph6(data)

    def test_output_capped(self):
        with pytest.raises(TooLargeError, match="--to edgelist"):
            serialize_graph6(path(GRAPH6_MAX_N + 1))

    def test_round_trip(self):
        for n in range(1, 10):
            for t in trees_of_order(n):
                assert parse_graph6(serialize_graph6(t)).edges == t.edges

    def test_against_networkx(self):
        # independent oracle for the published format, both directions
        for n in range(2, 9):
            for t in trees_of_order(n):
                ours = serialize_graph6(t)
                g = nx.Graph()
                g.add_nodes_from(range(t.n))  # graph6 follows node order
                g.add_edges_from(t.edges)
                theirs = nx.to_graph6_bytes(g, header=False).decode().strip()
                assert ours == theirs
                back = parse_graph6(theirs)
                assert back.edges == t.edges

    def test_large_order_size_field(self):
        t = path(100)
        s = serialize_graph6(t)
        assert parse_graph6(s).edges == t.edges
        g = nx.path_graph(100)
        assert s == nx.to_graph6_bytes(g, header=False).decode().strip()


class TestStructure:
    def test_p6(self):
        rep = structure(path(6))
        assert rep.leaves == {0, 5}
        assert rep.supports == {1, 4}
        assert rep.semi_supports == {2, 3}
        assert rep.isolated_supports == {1, 4}
        assert rep.diameter == 5

    def test_p4(self):
        rep = structure(path(4))
        assert rep.leaves == {0, 3}
        assert rep.supports == {1, 2}
        assert rep.semi_supports == set()
        # the two supports are adjacent, so neither is isolated
        assert rep.isolated_supports == set()
        assert rep.diameter == 3

    def test_star5(self):
        rep = structure(star(5))
        assert rep.leaves == {1, 2, 3, 4}
        assert rep.supports == {0}
        assert rep.semi_supports == set()
        assert rep.isolated_supports == {0}
        assert rep.diameter == 2

    def test_single_vertex_is_leaf(self):
        rep = structure(Tree(1))
        assert rep.leaves == {0}
        assert rep.diameter == 0 and rep.min_degree == 0

    def test_p2(self):
        rep = structure(path(2))
        assert rep.leaves == {0, 1}
        assert rep.supports == set()
        assert rep.diameter == 1

    def test_classes_disjoint_and_bounds(self, corpus):
        for t in corpus(2, 10):
            rep = structure(t)
            assert len(rep.leaves) >= 2
            assert not rep.leaves & rep.supports
            assert not rep.leaves & rep.semi_supports
            assert not rep.supports & rep.semi_supports
            assert rep.isolated_supports <= rep.supports
            assert rep.diameter >= 1


class TestDistance:
    def test_path_endpoints(self):
        assert distance(path(4), 0, 3) == 3

    def test_self(self):
        assert distance(star(7), 4, 4) == 0

    def test_q5_spine(self):
        assert distance(q_tree(5), 0, 6) == 6

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            distance(path(3), 0, 7)

    def test_diameter_matches_matrix(self, corpus):
        for t in corpus(1, 10):
            dm = distance_matrix(t)
            assert diameter(t) == max(max(row) for row in dm)


class TestCanonicalCode:
    def test_all_relabelings_small(self):
        for n in range(1, 8):
            for t in trees_of_order(n):
                ref = canonical_code(t)
                for perm in itertools.permutations(range(n)):
                    assert canonical_code(t.relabeled(dict(enumerate(perm)))) == ref

    def test_random_relabelings_larger(self):
        rng = random.Random(7)
        for seed in range(30):
            t = random_tree(rng.randrange(9, 16), seed)
            ref = canonical_code(t)
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert canonical_code(t.relabeled(dict(enumerate(perm)))) == ref

    def test_distinguishes_classes(self):
        assert canonical_code(path(4)) != canonical_code(star(4))
        for n in range(1, 9):
            codes = {canonical_code(t) for t in trees_of_order(n)}
            assert len(codes) == len(trees_of_order(n))

    def test_q2_built_vs_parsed(self):
        built = q_tree(2)
        perm = {i: (i * 3 + 1) % built.n for i in range(built.n)}
        text = serialize_edge_list(built.relabeled(perm))
        assert is_isomorphic(parse_edge_list(text), built)

    def test_center(self):
        assert center(path(5)) == (2,)
        assert center(path(6)) == (2, 3)
        assert center(star(9)) == (0,)
