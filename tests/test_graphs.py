import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synoie import corpus as c
from synoie import graphs as g

import graph_reference as ref
import worked_example as wx
from tree_strategies import (bracketed_trees, parents, root_is_preterminal,
                             tree_leaf_surfaces)

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"


def make_sentence(tokens, ptb, deps, verbs=None):
    rec = {"tokens": tokens, "const_ptb": ptb, "dep_conllu": deps,
           "verbs": verbs or []}
    return c._build_sentence(rec)


@pytest.fixture
def toy_svo():
    # "cat likes toys": likes is the root, cat its subject, toys its object
    return make_sentence(
        ["cat", "likes", "toys"],
        "(S (NP (NN cat)) (VP (VBZ likes) (NP (NNS toys))))",
        [[1, "nsubj"], [-1, "ROOT"], [1, "dobj"]],
        verbs=[1])


class TestDepGraph:
    def test_single_token(self):
        s = make_sentence(["hi"], "(S (UH hi))", [[-1, "ROOT"]])
        dg = g.build_dep_graph(s)
        assert dg.n == 1
        assert dg.node_labels == ["ROOT"]
        assert dg.edges == frozenset()
        assert dg.adjacency.tolist() == [[True]]

    def test_toy_svo(self, toy_svo):
        dg = g.build_dep_graph(toy_svo)
        assert dg.node_labels == ["nsubj", "ROOT", "dobj"]
        assert dg.edges == {(0, 1, "nsubj"), (1, 2, "dobj")}
        assert dg.adjacency[0, 1] and dg.adjacency[1, 0]
        assert not dg.adjacency[0, 2]

    def test_example_node_labels(self, example_sentence):
        dg = g.build_dep_graph(example_sentence)
        assert dg.node_labels == wx.EXPECTED_DEP_LABELS

    def test_edge_count_is_n_minus_1(self, example_sentence):
        dg = g.build_dep_graph(example_sentence)
        assert len(dg.edges) == len(example_sentence.tokens) - 1


class TestConstPaths:
    def test_example_paths(self, example_sentence):
        paths = g.build_const_paths(example_sentence.const_tree)
        assert paths == wx.EXPECTED_PATHS

    def test_single_leaf(self):
        tree = c.read_bracketed_tree("(S (NN x))")
        assert g.build_const_paths(tree) == [["S"]]

    @settings(deadline=None)
    @example(wx.CONST_PTB)
    @given(bracketed_trees)
    def test_paths_are_root_walks(self, text):
        # independent check: walk up via parent pointers and compare
        tree = c.read_bracketed_tree(text)
        parent = parents(tree)
        paths = g.build_const_paths(tree)
        leaves = [nid for nid, node in enumerate(tree.nodes) if node.is_preterminal]
        assert len(paths) == len(leaves)
        for leaf_id in leaves:
            walk = []
            cur = leaf_id
            while cur in parent:
                cur = parent[cur]
                walk.append(tree.nodes[cur].tag)
            assert list(reversed(walk)) == paths[tree.nodes[leaf_id].span[0]]


class TestFlatten:
    def test_worked_example_edges(self, example_sentence):
        edges = g.flatten_const_relations(example_sentence.const_tree)
        assert set(edges) == wx.EXPECTED_EDGES

    def test_single_token_np_has_no_edge(self):
        s = make_sentence(["cat", "ran"],
                          "(S (NP (NN cat)) (VP (VBD ran)))",
                          [[1, "nsubj"], [-1, "ROOT"]])
        edges = g.flatten_const_relations(s.const_tree)
        # rule 2 links ran->cat under S; no NP self-edge from rule 1
        assert all(i != j for i, j, _ in edges)
        assert (0, 1, "S") in edges

    def test_v3_restores_pruned_edge(self, example_sentence):
        cfg = g.FlattenConfig(variant="v3")
        edges = g.flatten_const_relations(example_sentence.const_tree, cfg)
        assert set(edges) == wx.EXPECTED_EDGES_V3

    def test_v2_retargets_to_sibling_last(self, example_sentence):
        cfg = g.FlattenConfig(variant="v2")
        edges = g.flatten_const_relations(example_sentence.const_tree, cfg)
        assert set(edges) == wx.EXPECTED_EDGES_V2

    def test_distance_rule_is_strict(self):
        # an NP spanning exactly max_distance+1 tokens survives
        toks = [f"w{i}" for i in range(9)]
        leaves = " ".join(f"(NN {t})" for t in toks)
        s = make_sentence(toks, f"(S (NP {leaves}))",
                          [[-1, "ROOT"]] + [[0, "dep"]] * 8)
        edges = g.flatten_const_relations(s.const_tree)
        assert (0, 8, "NP") in edges


class TestConstGraph:
    @pytest.mark.parametrize("variant", ["paper", "v1", "v2", "v3"])
    def test_golden_files(self, example_sentence, variant):
        cfg = g.FlattenConfig(variant=variant)
        cg = g.build_const_graph(example_sentence, cfg)
        got = json.loads(g.export_graph(cg, "json"))
        expected = json.loads((GOLDEN_DIR / f"const_{variant}.json").read_text())
        assert got == expected

    def test_node_sharing(self, example_sentence):
        cg = g.build_const_graph(example_sentence)
        dg = g.build_dep_graph(example_sentence)
        assert cg.n == dg.n == len(example_sentence.tokens)

    def test_adjacency_symmetric_with_self_loops(self, example_sentence):
        cg = g.build_const_graph(example_sentence)
        assert (cg.adjacency == cg.adjacency.T).all()
        assert cg.adjacency.diagonal().all()

    def test_determinism(self, example_sentence):
        a = g.build_const_graph(example_sentence)
        b = g.build_const_graph(example_sentence)
        assert a.edges == b.edges
        assert a.node_labels == b.node_labels
        assert (a.adjacency == b.adjacency).all()


def random_tree_sentence(rng, n_tokens):
    """Random bracketing over n_tokens with arbitrary phrase tags."""
    tags = ["S", "NP", "VP", "PP", "SBAR"]

    def build(lo, hi):
        if hi - lo == 1:
            return f"(NN w{lo})"
        k = int(rng.integers(lo + 1, hi))
        left, right = build(lo, k), build(k, hi)
        tag = tags[int(rng.integers(len(tags)))]
        return f"({tag} {left} {right})"

    toks = [f"w{i}" for i in range(n_tokens)]
    ptb = build(0, n_tokens)
    if not ptb.startswith("(S "):
        ptb = f"(S {ptb})"
    deps = [[-1, "ROOT"]] + [[0, "dep"]] * (n_tokens - 1)
    return make_sentence(toks, ptb, deps)


class TestRandomTreeProperties:
    def test_distance_rule_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            s = random_tree_sentence(rng, n)
            edges = g.flatten_const_relations(s.const_tree)
            assert all(j - i <= 8 for i, j, _ in edges)

    def test_node_sharing_property(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            s = random_tree_sentence(rng, n)
            assert g.build_const_graph(s).n == g.build_dep_graph(s).n == n

    def test_paths_start_at_root_tag(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_tree_sentence(rng, int(rng.integers(2, 12)))
            root_tag = s.const_tree.nodes[s.const_tree.root].tag
            for path in g.build_const_paths(s.const_tree):
                assert path[0] == root_tag


    @settings(deadline=None)
    @given(text=bracketed_trees, variant=st.sampled_from(g.VARIANTS),
           max_distance=st.integers(1, 12))
    def test_adjacency_invariants(self, text, variant, max_distance):
        tokens = tree_leaf_surfaces(text)
        deps = [[-1, "ROOT"]] + [[0, "dep"]] * (len(tokens) - 1)
        if root_is_preterminal(text):
            with pytest.raises(c.MalformedTree):
                make_sentence(tokens, text, deps)
            return
        s = make_sentence(tokens, text, deps)
        const = g.build_const_graph(s, g.FlattenConfig(max_distance, variant))
        for graph in (const, g.build_dep_graph(s)):
            adj = graph.adjacency
            assert (adj == adj.T).all()
            assert adj.diagonal().all()
            assert set(zip(*np.nonzero(np.triu(adj, 1)))) == \
                {(i, j) for i, j, _ in graph.edges}
        if variant != "v3":
            i, j = np.nonzero(const.adjacency)
            assert (abs(i - j) <= max_distance).all()


class TestHarderTrees:
    def test_unary_chain_only_clause_edge(self):
        s = make_sentence(
            ["dogs", "bark"],
            "(S (NP (NP (NNS dogs))) (VP (VBP bark)))",
            [[1, "nsubj"], [-1, "ROOT"]])
        edges = g.flatten_const_relations(s.const_tree)
        assert set(edges) == {(0, 1, "S")}

    def test_multiple_word_children_link_independently(self):
        # both word children of the VP connect to the sibling phrase start
        s = make_sentence(
            ["eat", "quickly", "the", "food"],
            "(VP (VB eat) (RB quickly) (NP (DT the) (NN food)))",
            [[-1, "ROOT"], [0, "advmod"], [3, "det"], [0, "dobj"]])
        edges = g.flatten_const_relations(s.const_tree)
        assert set(edges) == {(0, 2, "VP"), (1, 2, "VP"), (2, 3, "NP")}

    def test_sbar_counts_as_clause(self):
        s = make_sentence(
            ["he", "says", "that", "she", "runs"],
            "(S (NP (NN he)) (VP (VBZ says) (SBAR (IN that) "
            "(S (NP (NN she)) (VP (VBZ runs))))))",
            [[1, "nsubj"], [-1, "ROOT"], [4, "mark"], [4, "nsubj"],
             [1, "ccomp"]])
        edges = g.flatten_const_relations(s.const_tree)
        assert set(edges) == {
            (0, 4, "S"),      # root clause boundary
            (2, 4, "SBAR"),   # subordinate clause boundary
            (3, 4, "S"),      # inner clause boundary
            (1, 2, "VP"),     # says -> first word of SBAR
            (2, 3, "SBAR"),   # that -> first word of inner S
        }


class TestFlattenConfig:
    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            g.FlattenConfig(variant="v9")

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            g.FlattenConfig(max_distance=0)

    def test_clause_tag_set_is_configurable(self, example_sentence):
        # dropping S from the clause set removes the clause-boundary edge
        cfg = g.FlattenConfig(clause_tags=frozenset({"SBAR"}))
        edges = g.flatten_const_relations(example_sentence.const_tree, cfg)
        assert (4, 9, "S") not in edges
        assert (0, 1, "NP") in edges


class TestExport:
    def test_json_single_node(self):
        s = make_sentence(["hi"], "(S (UH hi))", [[-1, "ROOT"]])
        dg = g.build_dep_graph(s)
        assert g.export_graph(dg, "json") == \
            '{"view":"dep","nodes":[{"i":0,"label":"ROOT"}],"edges":[]}'

    def test_dot_example_const(self, example_sentence):
        cg = g.build_const_graph(example_sentence)
        dot = g.export_graph(cg, "dot", tokens=example_sentence.tokens)
        assert dot.count(" -- ") == 9
        assert 'label="NP"' in dot and dot.startswith("graph const {")

    def test_unknown_format(self, example_sentence):
        cg = g.build_const_graph(example_sentence)
        with pytest.raises(g.UnknownFormat):
            g.export_graph(cg, "xml")


def assert_rows_are_the_path_loops(graph: g.SyntacticGraph, paths):
    """``graph``'s label rows are, byte for byte, the loop over ``paths``."""
    labels, rows = graph.label_rows
    want_labels, want = ref.label_rows_loop(g.CONST_VIEW, len(paths), paths)
    assert labels == want_labels and rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()


DEEP_TAGS = ["S", "VP", "NP", "PP"]


def right_branching_sentence(n: int):
    """n words, word i the first child of a phrase nested i deep, tagged
    from ``DEEP_TAGS`` in turn; the last word sits under all n phrases."""
    text = ("".join(f"({DEEP_TAGS[i % 4]} (NN w{i}) " for i in range(n - 1))
            + f"(NP (NN w{n - 1}))" + ")" * (n - 1))
    return make_sentence([f"w{i}" for i in range(n)], text,
                         [[-1, "ROOT"]] + [[0, "dep"]] * (n - 1))


class TestConstLabelRows:
    """The const view's label rows come from one walk down the tree with a
    running tag count; they keep the bytes of the loop over each path (a tag
    seen k times on a path of length L reads 1/L added k times in a row,
    which is not k * (1/L) from k = 4 on)."""

    @settings(deadline=None, max_examples=150)
    @given(text=bracketed_trees, variant=st.sampled_from(g.VARIANTS))
    def test_drawn_trees(self, text, variant):
        if root_is_preterminal(text):
            return  # the corpus rejects it: its word would have no path
        tokens = tree_leaf_surfaces(text)
        s = make_sentence(tokens, text,
                          [[-1, "ROOT"]] + [[0, "dep"]] * (len(tokens) - 1))
        cg = g.build_const_graph(s, g.FlattenConfig(variant=variant))
        assert_rows_are_the_path_loops(cg, cg.node_labels)
        if variant != "v1":
            assert cg.node_labels == g.build_const_paths(s.const_tree)

    @pytest.mark.parametrize("variant", g.VARIANTS)
    def test_golden_graphs(self, example_sentence, variant):
        cg = g.build_const_graph(example_sentence, g.FlattenConfig(variant=variant))
        golden = json.loads((GOLDEN_DIR / f"const_{variant}.json").read_text())
        assert_rows_are_the_path_loops(cg, [node["label"] for node in golden["nodes"]])

    def test_sample_corpus(self):
        for s in c.load_corpus(Path(__file__).resolve().parent.parent / "data"
                               / "sample_corpus.jsonl"):
            cg = g.build_const_graph(s)
            assert_rows_are_the_path_loops(cg, g.build_const_paths(s.const_tree))

    def test_deep_tree_in_one_walk(self):
        # a right-branching tree nested 1,000 deep: the paths sum to about
        # 500,000 tags, which the per-path loop took 0.15-0.28 s to read
        n, tags = 1000, DEEP_TAGS
        s = right_branching_sentence(n)
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            labels, rows = g.const_label_rows(s.const_tree)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.05
        assert labels == sorted(tags) and rows.shape == (n, 4)
        # the last word sits under all n phrases
        last = [tags[i % 4] for i in range(n - 1)] + ["NP"]
        np.testing.assert_allclose(rows[-1], [last.count(t) / n for t in labels],
                                   rtol=1e-12)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=1e-12)


def assert_same_graph(got: g.SyntacticGraph, want: g.SyntacticGraph):
    """Equal labels and edges, and byte-equal adjacency and label rows."""
    assert (got.view, got.n) == (want.view, want.n)
    assert got.node_labels == want.node_labels
    assert got.edges == want.edges
    assert got.adjacency.dtype == want.adjacency.dtype
    assert got.adjacency.tobytes() == want.adjacency.tobytes()
    assert got.label_rows[0] == want.label_rows[0]
    assert got.label_rows[1].shape == want.label_rows[1].shape
    assert got.label_rows[1].tobytes() == want.label_rows[1].tobytes()


class TestOneWalk:
    """Each const graph comes from one walk down its tree; the builders that
    take one pass per part (``graph_reference``) are its oracles."""

    @settings(deadline=None, max_examples=200)
    @example(wx.CONST_PTB, "paper", 8, ["nsubj"] * 11)
    @given(text=bracketed_trees, variant=st.sampled_from(g.VARIANTS),
           max_distance=st.integers(1, 12),
           rels=st.lists(st.sampled_from(["nsubj", "obj", "det"]), min_size=11,
                         max_size=11))
    def test_matches_one_pass_per_part(self, text, variant, max_distance, rels):
        tree = c.read_bracketed_tree(text)
        cfg = g.FlattenConfig(max_distance, variant)
        assert g.build_const_paths(tree) == ref.build_const_paths(tree)
        assert g.flatten_const_relations(tree, cfg) == \
            ref.flatten_const_relations(tree, cfg)
        labels, rows = g.const_label_rows(tree)
        want_labels, want_rows = ref.const_label_rows(tree)
        assert labels == want_labels and rows.tobytes() == want_rows.tobytes()
        if root_is_preterminal(text):
            return  # the corpus rejects it: its word would have no path
        tokens = tree_leaf_surfaces(text)
        # a chain: word k + 1 hangs off word k
        deps = [[-1, "ROOT"]] + [[k, rels[k % len(rels)]]
                                 for k in range(len(tokens) - 1)]
        s = make_sentence(tokens, text, deps)
        assert_same_graph(g.build_const_graph(s, cfg), ref.build_const_graph(s, cfg))
        assert_same_graph(g.build_dep_graph(s), ref.build_dep_graph(s))

    def test_deep_tree_builds_fast(self):
        # a right-branching tree nested 1,000 deep: its paths sum to about
        # 500,000 tags, each copied once
        n = 1000
        s = right_branching_sentence(n)
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            cg = g.build_const_graph(s)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.1
        assert len(cg.node_labels[-1]) == n
        assert_same_graph(cg, ref.build_const_graph(s))
