import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synoie import corpus as c

import worked_example as wx
from tree_strategies import (bracketed_trees, parents, root_is_preterminal,
                             tree_leaf_surfaces)


class TestBracketedTree:
    def test_minimal_two_phrase_tree(self):
        tree = c.read_bracketed_tree("(S (NP (NN cat)) (VP (VBZ likes)))")
        root = tree.nodes[tree.root]
        assert root.tag == "S"
        assert [tree.nodes[i].tag for i in root.children] == ["NP", "VP"]
        assert tree.n_leaves == 2

    def test_example_tree_shape(self):
        tree = c.read_bracketed_tree(wx.CONST_PTB)
        assert tree.n_leaves == len(wx.TOKENS)
        root = tree.nodes[tree.root]
        assert root.tag == "S"
        assert [tree.nodes[i].tag for i in root.children] == ["NP", "VP", "."]
        # the inner clause sits under the outer VP
        vp = tree.nodes[root.children[1]]
        inner = [tree.nodes[i].tag for i in vp.children]
        assert inner == ["VBZ", "S"]

    def test_unbalanced(self):
        with pytest.raises(c.UnbalancedBrackets):
            c.read_bracketed_tree("(S")

    def test_trailing_garbage(self):
        with pytest.raises(c.UnbalancedBrackets):
            c.read_bracketed_tree("(S (NN x)) )")

    def test_empty(self):
        with pytest.raises(c.EmptyTree):
            c.read_bracketed_tree("   ")

    def test_malformed_mixed_children(self):
        with pytest.raises(c.MalformedTree):
            c.read_bracketed_tree("(S word (NP (NN x)))")

    def test_leaf_order_matches_tokens(self):
        tree = c.read_bracketed_tree(wx.CONST_PTB)
        leaves = [node for node in tree.nodes if node.is_preterminal]
        assert [node.span for node in leaves] == [(i, i) for i in range(len(wx.TOKENS))]
        assert tree_leaf_surfaces(wx.CONST_PTB) == wx.TOKENS

    def test_token_spans(self):
        tree = c.read_bracketed_tree(wx.CONST_PTB)
        assert tree.nodes[tree.root].span == (0, 10)

    @settings(deadline=None)
    @given(bracketed_trees)
    def test_write_read_round_trip(self, text):
        tree = c.read_bracketed_tree(text)
        tokens = tree_leaf_surfaces(text)
        deps = [[-1, "ROOT"]] + [[0, "dep"]] * (len(tokens) - 1)
        record = {"tokens": tokens, "const_ptb": text, "dep_conllu": deps,
                  "verbs": []}
        if root_is_preterminal(text):
            with pytest.raises(c.MalformedTree):
                c._build_sentence(record)
            return
        s = c._build_sentence(record)
        written = c.write_bracketed_tree(s)
        assert written == text
        assert c.read_bracketed_tree(written) == tree

    @settings(deadline=None)
    @given(bracketed_trees)
    def test_spans_are_min_max_leaf_below(self, text):
        tree = c.read_bracketed_tree(text)
        parent = parents(tree)
        # post-order: children below parents, only the last node is the root
        assert all(ch < p for ch, p in parent.items())
        assert set(parent) == set(range(tree.root))
        lo, hi = {}, {}
        leaves = [nid for nid, node in enumerate(tree.nodes) if node.is_preterminal]
        for leaf, nid in enumerate(leaves):
            cur = nid
            while cur is not None:
                lo[cur] = min(lo.get(cur, leaf), leaf)
                hi[cur] = max(hi.get(cur, leaf), leaf)
                cur = parent.get(cur)
        assert [node.span for node in tree.nodes] == \
               [(lo[i], hi[i]) for i in range(len(tree.nodes))]
        assert tree.n_leaves == len(leaves) == len(tree_leaf_surfaces(text))


class TestConllu:
    """The dependency rows of a record's ``dep_conllu`` field."""

    def test_single_token(self):
        dep = c.DependencyRows(heads=(c.ROOT_HEAD,), deprels=("ROOT",))
        assert dep.heads == (c.ROOT_HEAD,)
        assert dep.heads.index(c.ROOT_HEAD) == 0

    def test_two_roots(self):
        with pytest.raises(c.MultipleRoots):
            c.DependencyRows(heads=(c.ROOT_HEAD, c.ROOT_HEAD),
                             deprels=("ROOT", "ROOT"))

    def test_missing_root(self):
        with pytest.raises((c.MissingRoot, c.CyclicHeads)):
            c.DependencyRows(heads=(1, 0), deprels=("dep", "dep"))

    def test_cycle(self):
        with pytest.raises(c.CyclicHeads):
            c.DependencyRows(heads=(1, 0, c.ROOT_HEAD),
                             deprels=("dep", "dep", "ROOT"))

    def test_long_head_chain_validates_in_linear_time(self):
        # before: each token walked to the root with a fresh set, O(n depth),
        # and this chain took about 19 s
        n = 20_000
        start = time.perf_counter()
        c.DependencyRows(heads=tuple(range(1, n)) + (c.ROOT_HEAD,),
                         deprels=("dep",) * n)
        assert time.perf_counter() - start < 2.0

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_cycle_names_the_first_token_that_cannot_reach_the_root(self, data, n):
        # the token named is the first whose own walk to the root revisits
        # a node, as a walk per token with a fresh set finds it
        root = data.draw(st.integers(0, n - 1))
        heads = [c.ROOT_HEAD if i == root else
                 data.draw(st.integers(0, n - 1).filter(lambda h, i=i: h != i))
                 for i in range(n)]

        def reaches_root(i):
            seen = set()
            while i != c.ROOT_HEAD and i not in seen:
                seen.add(i)
                i = heads[i]
            return i == c.ROOT_HEAD

        stuck = [i for i in range(n) if not reaches_root(i)]
        if not stuck:
            c.DependencyRows(heads=tuple(heads), deprels=("dep",) * n)
            return
        with pytest.raises(c.CyclicHeads,
                           match=f"^head cycle through token {stuck[0]}$"):
            c.DependencyRows(heads=tuple(heads), deprels=("dep",) * n)

    def test_example_sentence_root_is_likes(self, example_sentence):
        dep = example_sentence.dep_rows
        assert dep.heads.index(c.ROOT_HEAD) == wx.TOKENS.index("likes")
        assert dep.heads[wx.TOKENS.index("likes")] == c.ROOT_HEAD


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert c.load_corpus(p) == []

    def test_example_sentence(self, example_sentence):
        assert example_sentence.tokens == wx.TOKENS
        assert example_sentence.verbs == wx.VERBS
        assert len(example_sentence.gold_tuples) == 1
        assert example_sentence.gold_tuples[0].spans["REL"] == (3, 4)

    def test_leaf_count_mismatch(self, tmp_path):
        rec = dict(wx.RECORD, tokens=wx.TOKENS + ["extra"])
        rec["dep_conllu"] = wx.DEP_CONLLU + [[3, "dep"]]
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(c.AlignmentError) as e:
            c.load_corpus(p)
        assert e.value.line == 1  # lines count from 1, as in score --pred

    def test_rel_must_cover_verb(self, tmp_path):
        rec = json.loads(json.dumps(wx.RECORD))
        rec["tuples"][0]["spans"]["REL"] = [4, 4]  # verb is 3
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(c.AlignmentError):
            c.load_corpus(p)

    def test_overlapping_gold_spans(self, tmp_path):
        rec = json.loads(json.dumps(wx.RECORD))
        rec["tuples"][0]["spans"]["ARG1"] = [4, 6]  # overlaps REL [3,4]
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(c.OverlappingGoldSpans):
            c.load_corpus(p)

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(wx.RECORD) + "\n{oops\n")
        with pytest.raises(c.SchemaViolation) as e:
            c.load_corpus(p)
        assert e.value.line == 2

    def test_verb_out_of_range(self, tmp_path):
        rec = json.loads(json.dumps(wx.RECORD))
        rec["verbs"] = [3, 99]
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(c.AlignmentError):
            c.load_corpus(p)

    def test_two_tuples_for_one_verb(self, tmp_path):
        rec = json.loads(json.dumps(wx.RECORD))
        rec["tuples"].append(dict(rec["tuples"][0]))
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(c.SchemaViolation):
            c.load_corpus(p)

    def test_role_beyond_max_arg(self, tmp_path):
        rec = json.loads(json.dumps(wx.RECORD))
        rec["tuples"][0]["spans"]["ARG9"] = [7, 9]
        del rec["tuples"][0]["spans"]["ARG2"]
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(c.SchemaViolation):
            c.load_corpus(p)

    @pytest.mark.parametrize("record", [
        5,
        None,
        dict(wx.RECORD, const_ptb=7),
        dict(wx.RECORD, dep_conllu=[-1]),
        dict(wx.RECORD, dep_conllu=[[float(h), d] for h, d in wx.DEP_CONLLU]),
        dict(wx.RECORD, dep_conllu=wx.DEP_CONLLU[:3] + [[-1, "ROOT", 3]]
             + wx.DEP_CONLLU[4:]),
        dict(wx.RECORD, verbs=0),
        dict(wx.RECORD, verbs=[True, 4]),
        dict(wx.RECORD, verbs=[[3]]),
        dict(wx.RECORD, tuples={}),
        dict(wx.RECORD, tuples=[5]),
        dict(wx.RECORD, tuples=[dict(wx.GOLD_TUPLE, verb=3.0)]),
        dict(wx.RECORD, tuples=[dict(wx.GOLD_TUPLE, spans=[[3, 4]])]),
        dict(wx.RECORD, tuples=[{"verb": 3, "spans": {"REL": 0}}]),
        dict(wx.RECORD, tuples=[{"verb": 3, "spans": {"REL": [2.7, "4"]}}]),
    ], ids=["int", "null", "const-not-a-string", "dep-row-not-a-pair",
            "dep-head-float", "dep-row-of-three", "verbs-not-a-list",
            "verb-bool", "verb-a-list", "tuples-not-a-list", "tuple-not-an-object",
            "tuple-verb-float", "spans-not-an-object", "span-not-a-pair",
            "span-ends-not-integers"])
    def test_malformed_record_names_its_line(self, tmp_path, record):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(wx.RECORD) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(c.SchemaViolation) as e:
            c.load_corpus(p)
        assert e.value.line == 2

    @pytest.mark.parametrize("record, error", [
        (dict(wx.RECORD, const_ptb="(S (NN x)"), c.UnbalancedBrackets),
        (dict(wx.RECORD, const_ptb="(S (NP (NN a) b))"), c.MalformedTree),
        (dict(wx.RECORD, tokens=[""] + wx.TOKENS[1:]), c.CorpusError),
        (dict(wx.RECORD, tuples=[dict(wx.GOLD_TUPLE, spans=dict(
            wx.GOLD_TUPLE["spans"], ARG1=[4, 6]))]), c.OverlappingGoldSpans),
        (dict(wx.RECORD, dep_conllu=wx.DEP_CONLLU[:2] + [[-1, "ROOT"]]
              + wx.DEP_CONLLU[3:]), c.AlignmentError),
        (dict(wx.RECORD, dep_conllu=wx.DEP_CONLLU[:2] + [[0, "nsubj"]]
              + wx.DEP_CONLLU[3:]), c.AlignmentError),
        (dict(wx.RECORD, verbs=[3, 99]), c.AlignmentError),
    ], ids=["unbalanced-tree", "malformed-tree", "empty-token", "overlapping-spans",
            "dep-two-roots", "dep-head-cycle", "verb-out-of-range"])
    def test_error_below_the_record_names_its_line(self, tmp_path, record, error):
        # raised while the record is built (the tree reader, the token, verb
        # and span checks, the dependency rows), which knows no line; the
        # loader attaches it and keeps the error's type
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(wx.RECORD) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(error) as e:
            c.load_corpus(p)
        assert e.value.line == 2
        assert str(e.value).startswith("line 2: ")

    def test_bare_preterminal_root_names_its_line(self, tmp_path):
        # a one-word tree needs a phrase above the word, or the word gets
        # no constituency path
        go = {"tokens": ["Go"], "dep_conllu": [[-1, "ROOT"]], "verbs": [0]}
        p = tmp_path / "go.jsonl"
        p.write_text(json.dumps(dict(go, const_ptb="(S (VB Go))")) + "\n"
                     + json.dumps(dict(go, const_ptb="(VB Go)")) + "\n")
        with pytest.raises(c.MalformedTree) as e:
            c.load_corpus(p)
        assert e.value.line == 2
        p.write_text(json.dumps(dict(go, const_ptb="(S (VB Go))")) + "\n")
        [s] = c.load_corpus(p)
        assert s.const_tree.nodes[s.const_tree.root].tag == "S"

    def test_round_trip(self, example_corpus_path, tmp_path):
        sentences = c.load_corpus(example_corpus_path)
        out = tmp_path / "round.jsonl"
        c.save_corpus(sentences, out)
        again = c.load_corpus(out)
        assert [c.sentence_to_record(s) for s in sentences] == \
               [c.sentence_to_record(s) for s in again]


class TestReadJsonl:
    """The one JSONL reader: ``build(value, line)`` per non-blank line."""

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('1\n\n  \n[2]\n"three"')
        assert c.read_jsonl(p, lambda v, line: (line, v)) == [
            (1, 1), (4, [2]), (5, "three")]

    def test_cr_and_crlf_end_lines_too(self, tmp_path):
        # the reader reads bytes, and keeps text mode's line endings
        p = tmp_path / "x.jsonl"
        p.write_bytes(b'1\r\n\r[2]\r"three"\n')
        assert c.read_jsonl(p, lambda v, line: (line, v)) == [
            (1, 1), (3, [2]), (4, "three")]

    def test_bad_json_names_line_and_column_once(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('1\n\n{"a": oops}\n')
        with pytest.raises(c.SchemaViolation) as e:
            c.read_jsonl(p, lambda v, line: v)
        assert e.value.line == 3
        assert str(e.value) == "line 3: bad JSON: Expecting value at column 7"

    def test_deeply_nested_json_is_bad_json(self, tmp_path):
        # before: json's RecursionError, which no exit code maps
        p = tmp_path / "x.jsonl"
        p.write_text("1\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(c.SchemaViolation) as e:
            c.read_jsonl(p, lambda v, line: v)
        assert str(e.value) == "line 2: bad JSON: nested too deeply"

    @pytest.mark.parametrize("error", [ValueError, c.AlignmentError])
    def test_build_errors_get_the_line(self, tmp_path, error):
        def build(value, line):
            if value == 2:
                raise error("no twos")
            return value

        p = tmp_path / "x.jsonl"
        p.write_text("1\n2\n")
        with pytest.raises(error) as e:
            c.read_jsonl(p, build)
        assert e.value.line == 2
        assert str(e.value) == "line 2: no twos"

    def test_a_line_already_attached_is_kept(self):
        exc = c.at_line(c.SchemaViolation("x"), 4)
        assert c.at_line(exc, 9) is exc
        assert (exc.line, str(exc)) == (4, "line 4: x")

    def test_other_errors_pass_through(self, tmp_path):
        def build(value, line):
            raise KeyError("k")

        p = tmp_path / "x.jsonl"
        p.write_text("1\n")
        with pytest.raises(KeyError) as e:
            c.read_jsonl(p, build)
        assert not hasattr(e.value, "line")


class TestExpandInstances:
    def test_counts(self, example_sentence):
        insts = c.expand_instances(example_sentence)
        assert len(insts) == len(example_sentence.verbs)

    def test_example_gold_labels(self, example_sentence):
        insts = {i.indicator_verb: i for i in c.expand_instances(example_sentence)}
        assert list(insts[3].labels) == wx.EXPECTED_BIO_LIKES
        assert all(l == "O" for l in insts[4].labels)

    def test_no_verbs(self, example_sentence):
        bare = c.ParsedSentence(tokens=example_sentence.tokens,
                                const_tree=example_sentence.const_tree,
                                dep_rows=example_sentence.dep_rows,
                                verbs=[], gold_tuples=[])
        assert c.expand_instances(bare) == []

    def test_three_verbs_two_tuples(self, example_sentence):
        s = example_sentence
        extra = c.ParsedSentence(
            tokens=s.tokens, const_tree=s.const_tree, dep_rows=s.dep_rows,
            verbs=[3, 4, 6],
            gold_tuples=[s.gold_tuples[0],
                         c.Extraction(spans={"REL": (6, 6)}, indicator_verb=6)])
        insts = c.expand_instances(extra)
        assert len(insts) == 3
        all_o = [i for i in insts if all(l == "O" for l in i.labels)]
        assert len(all_o) == 1 and all_o[0].indicator_verb == 4

    def test_gold_sequences_well_formed(self, example_sentence):
        for inst in c.expand_instances(example_sentence):
            prev_role = None
            for label in inst.labels:
                if label.startswith("I-"):
                    assert prev_role == label[2:]
                prev_role = label[2:] if label != "O" else None
            if any(l != "O" for l in inst.labels):
                rel_positions = [k for k, l in enumerate(inst.labels)
                                 if l.endswith("-REL")]
                assert min(rel_positions) <= inst.indicator_verb <= max(rel_positions)


@pytest.mark.parametrize("role, ok", [
    ("REL", True), ("ARG0", True), ("ARG12", True), ("ARG", False),
    ("ARG-1", False), ("ARG+1", False), ("ARG1_0", False), ("ARG1.5", False),
    ("ARG\uff13", False), ("ARG0x3", False), ("ARG 1", False), ("arg1", False)])
def test_is_role(role, ok):
    # k must be ASCII digits: int() also reads "+1", "1_0" and a full-width 3
    assert c.is_role(role) is ok


def test_tag_inventory_size():
    # O + B/I-REL + B/I-ARG0..5
    assert len(c.TAGS) == 2 + 2 * (5 + 1) + 1
    assert c.TAGS[:5] == ("O", "B-REL", "I-REL", "B-ARG0", "I-ARG0")
