"""The graph builders written one pass per part: one walk for the tag
paths, one for the label rows, one loop over the nodes for the edges, and
one loop per node and per edge for the label rows and the adjacency.
``synoie.graphs`` builds each view in one walk; these are its oracles, and
its outputs must equal theirs byte for byte."""

from __future__ import annotations

from itertools import accumulate, repeat

import numpy as np

from synoie.corpus import ConstituencyTree, ParsedSentence, ROOT_HEAD
from synoie.graphs import (CONST_VIEW, DEFAULT_PUNCT_TAGS, DEP_VIEW, ROOT_LABEL,
                           FlattenConfig, SyntacticGraph)


def label_rows_loop(view: str, n: int, node_labels: list) -> tuple[list[str], np.ndarray]:
    """The sorted labels and the (n, U) rows that average each node's labels
    over them, one tag of one path at a time."""
    paths = (node_labels if view == CONST_VIEW
             else [[label] for label in node_labels])
    label_set = sorted({tag for path in paths for tag in path})
    column = {tag: k for k, tag in enumerate(label_set)}
    rows = np.zeros((n, len(label_set)))
    for i, path in enumerate(paths):
        for tag in path:
            rows[i, column[tag]] += 1.0 / len(path)
    return label_set, rows


def adjacency_from_edges(n: int, edges) -> np.ndarray:
    adj = np.eye(n, dtype=bool)
    for i, j, _ in edges:
        adj[i, j] = True
        adj[j, i] = True
    return adj


def build_dep_graph(s: ParsedSentence) -> SyntacticGraph:
    """Dependency view: inbound deprel as node label, one edge per head link."""
    dep = s.dep_rows
    n = len(s.tokens)
    labels = [ROOT_LABEL if h == ROOT_HEAD else d
              for h, d in zip(dep.heads, dep.deprels)]
    edges = set()
    for i, h in enumerate(dep.heads):
        if h == ROOT_HEAD:
            continue
        a, b = (h, i) if h < i else (i, h)
        edges.add((a, b, dep.deprels[i]))
    return SyntacticGraph(view=DEP_VIEW, n=n, node_labels=labels,
                          edges=frozenset(edges),
                          adjacency=adjacency_from_edges(n, edges),
                          label_rows=label_rows_loop(DEP_VIEW, n, labels))


def build_const_paths(tree: ConstituencyTree) -> list[list[str]]:
    """Per-token list of internal constituent tags from the root to the word.

    Preterminal POS tags are excluded: the path stops at the phrase level.
    """
    paths: list[list[str]] = [None] * tree.n_leaves
    stack = [(tree.root, [])]  # (node id, tags of its ancestors)
    while stack:
        nid, prefix = stack.pop()
        node = tree.nodes[nid]
        if node.is_preterminal:
            paths[node.span[0]] = list(prefix)
        else:
            path = prefix + [node.tag]
            stack.extend((c, path) for c in node.children)
    return paths


def const_label_rows(tree: ConstituencyTree) -> tuple[list[str], np.ndarray]:
    """The const view's ``label_rows`` for the tag paths of
    ``build_const_paths``, in one walk down the tree that keeps a running
    count of each tag on the path to the current node.

    A word's entry for a tag it counts k times on a path of length L is
    1/L added k times in a row, as a loop over the path sums it, so these
    are the bytes the per-path loop ``label_rows_loop`` gives.  Those
    partial sums come from one running sum per change of leaf depth, so the
    work is O(tree nodes x distinct tags) plus those sums, where reading
    every path costs the sum of their lengths.
    """
    nodes = tree.nodes
    label_set = sorted({node.tag for node in nodes if node.children})
    column = {tag: k for k, tag in enumerate(label_set)}
    rows = [None] * tree.n_leaves
    counts = [0] * len(label_set)
    depth, sums = 0, [0.0]  # sums[k]: 1 / (len(sums) - 1) added k times
    # a node id enters its node; ~k leaves a node whose tag is column k
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        if nid < 0:
            counts[~nid] -= 1
            depth -= 1
            continue
        node = nodes[nid]
        if not node.children:
            if len(sums) != depth + 1:
                sums = list(accumulate(repeat(1.0 / depth, depth), initial=0.0))
            rows[node.span[0]] = [sums[k] for k in counts]
            continue
        k = column[node.tag]
        counts[k] += 1
        depth += 1
        stack.append(~k)
        stack.extend(node.children)
    return label_set, np.array(rows).reshape(tree.n_leaves, len(label_set))


def flatten_const_relations(tree: ConstituencyTree,
                            cfg: FlattenConfig = FlattenConfig()) -> frozenset:
    """Flatten phrase structure into typed word-to-word edges (rules 1-4)."""
    edges: set[tuple[int, int, str]] = set()

    def add(i: int, j: int, etype: str):
        if i == j:
            return
        if i > j:
            i, j = j, i
        edges.add((i, j, etype))

    for node in tree.nodes:
        if node.is_preterminal:
            continue
        first, last = node.span
        # rule 1: NP boundary
        if node.tag == "NP" and last > first:
            add(first, last, "NP")
        # rule 3: clause boundary
        if node.tag in cfg.clause_tags and last > first:
            add(first, last, node.tag)
        # rule 2: word child to first (v2: last) word of each phrasal sibling
        word_children = [c for c in node.children
                         if tree.nodes[c].is_preterminal
                         and tree.nodes[c].tag not in DEFAULT_PUNCT_TAGS]
        phrase_children = [c for c in node.children
                           if not tree.nodes[c].is_preterminal]
        for w in word_children:
            widx = tree.nodes[w].span[0]
            for p in phrase_children:
                pfirst, plast = tree.nodes[p].span
                target = plast if cfg.variant == "v2" else pfirst
                add(widx, target, node.tag)

    if cfg.variant != "v3":
        edges = {(i, j, t) for i, j, t in edges if j - i <= cfg.max_distance}
    return frozenset(edges)


def build_const_graph(s: ParsedSentence, cfg: FlattenConfig = FlattenConfig()) -> SyntacticGraph:
    """Constituency view, each part from its own pass; v1 keeps the last tag
    of each path."""
    paths = build_const_paths(s.const_tree)
    if cfg.variant == "v1":
        paths = [p[-1:] for p in paths]
    edges = flatten_const_relations(s.const_tree, cfg)
    n = len(s.tokens)
    return SyntacticGraph(view=CONST_VIEW, n=n, node_labels=paths, edges=edges,
                          adjacency=adjacency_from_edges(n, edges),
                          label_rows=label_rows_loop(CONST_VIEW, n, paths))
