"""Word-level syntactic graphs derived from constituency and dependency parses.

Both views share the token set as their nodes.  The dependency view labels
each node with its inbound relation and mirrors the tree's edges.  The
constituency view labels each node with the tag path from the tree root down
to the word, and flattens phrase-level structure into word-to-word edges:

  1. each multi-word noun phrase links its first and last word (type NP);
  2. a preterminal word links to the first word of every phrasal sibling,
     typed by the parent tag (variant v2 targets the sibling's last word);
  3. each multi-word clause links its first and last word (type = clause tag);
  4. edges spanning more than ``max_distance`` token positions are dropped
     (variant v3 keeps them).

Variant v1 keeps the edge rules but truncates every node label to the last
tag of its path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, repeat
from typing import NamedTuple

import numpy as np

from .corpus import ConstituencyTree, ParsedSentence, ROOT_HEAD

DEP_VIEW = "dep"
CONST_VIEW = "const"
ROOT_LABEL = "ROOT"

VARIANTS = ("paper", "v1", "v2", "v3")

DEFAULT_CLAUSE_TAGS = frozenset({"S", "SBAR", "SINV", "SQ"})
# PTB punctuation preterminals never act as the word side of rule 2: they head
# nothing, and linking them produces edges absent from the reference graphs.
DEFAULT_PUNCT_TAGS = frozenset({".", ",", ":", "``", "''", "-LRB-", "-RRB-"})


class UnknownFormat(ValueError):
    pass


@dataclass(frozen=True)
class FlattenConfig:
    max_distance: int = 8
    variant: str = "paper"
    clause_tags: frozenset = DEFAULT_CLAUSE_TAGS

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.max_distance < 1:
            raise ValueError("max_distance must be >= 1")


@dataclass(eq=False)
class SyntacticGraph:
    """Shared word nodes with view-specific labels and typed edges.

    ``node_labels`` holds one deprel string per node in the dep view and one
    tag path (list of strings) per node in the const view.  ``edges`` stores
    canonical (i, j, type) triples with i < j; ``adjacency`` is the symmetric
    boolean matrix with self-loops, used for message passing.

    ``label_rows`` is the sorted list of the distinct node labels and the
    (n, U) matrix whose row i averages node i's labels over them: a dep node
    has one label, so its row is one-hot, and a const node the tags of its
    path.  Both views' label embeddings read it alone, as the rows of the
    constant matrix that ``gcn.LabelVocab.label_matrix`` multiplies with W1.
    The builders below give it: a one-hot write for the dep view and v1, and
    the tree walk of ``const_label_rows`` for the other const variants.  A
    graph that no label embedding reads may leave it None.
    """

    view: str
    n: int
    node_labels: list
    edges: frozenset
    adjacency: np.ndarray = field(repr=False)
    label_rows: tuple[list[str], np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def selection(self) -> np.ndarray:
        """The (n, n) float mask of the edges without self-loops, which the
        R1 and R3 losses read: a node never selects itself.  Built on first
        use, then kept."""
        sel = self.adjacency.astype(float)
        np.fill_diagonal(sel, 0.0)
        return sel


def _adjacency_from_edges(n: int, edges) -> np.ndarray:
    # one item write per edge end: at a sentence's tens of edges this beats
    # one fancy-index write, whose cost is converting its index lists
    adj = np.eye(n, dtype=bool)
    for i, j, _ in edges:
        adj[i, j] = True
        adj[j, i] = True
    return adj


def _one_hot_rows(labels: list[str]) -> tuple[list[str], np.ndarray]:
    """``label_rows`` for one label a node: a 1.0 in each row's column."""
    label_set = sorted(set(labels))
    column = {label: k for k, label in enumerate(label_set)}
    rows = np.zeros((len(labels), len(label_set)))
    rows[np.arange(len(labels)), [column[label] for label in labels]] = 1.0
    return label_set, rows


def build_dep_graph(s: ParsedSentence) -> SyntacticGraph:
    """Dependency view: inbound deprel as node label, one edge per head link."""
    dep = s.dep_rows
    n = len(s.tokens)
    labels = [ROOT_LABEL if h == ROOT_HEAD else d
              for h, d in zip(dep.heads, dep.deprels)]
    edges = frozenset((h, i, d) if h < i else (i, h, d)
                      for i, (h, d) in enumerate(zip(dep.heads, dep.deprels))
                      if h != ROOT_HEAD)
    return SyntacticGraph(view=DEP_VIEW, n=n, node_labels=labels, edges=edges,
                          adjacency=_adjacency_from_edges(n, edges),
                          label_rows=_one_hot_rows(labels))


class _ConstWalk(NamedTuple):
    """What one walk down a constituency tree gives: each word's tag path,
    the const view's ``label_rows`` for those paths, and the rule 1-4
    edges."""

    paths: list[list[str]]
    label_rows: tuple[list[str], np.ndarray]
    edges: frozenset


def _walk_const(tree: ConstituencyTree,
                cfg: FlattenConfig = FlattenConfig()) -> _ConstWalk:
    """One stack walk down ``tree`` that keeps the tag path to the current
    node and a running count of each tag on it.

    A word copies the path once and reads its label row off the counts: its
    entry for a tag it counts k times on a path of length L is 1/L added k
    times in a row, as a loop over the path sums it.  Those partial sums
    come from one running sum per change of leaf depth, so the rows cost
    O(tree nodes x distinct tags) plus those sums, and the paths the sum of
    their lengths.  A phrase adds its rule 1-3 edges from its span and its
    children, and rule 4 drops the long ones as they come.
    """
    nodes = tree.nodes
    if not nodes[tree.root].children:  # a bare preterminal: an empty path
        return _ConstWalk([[]], ([], np.zeros((1, 0))), frozenset())
    label_set = sorted({node.tag for node in nodes if node.children})
    column = {tag: k for k, tag in enumerate(label_set)}
    paths = [None] * tree.n_leaves
    rows = [None] * tree.n_leaves
    counts = [0] * len(label_set)
    path, sums = [], [0.0]  # sums[k]: 1 / (len(sums) - 1) added k times
    edges = set()
    clause_tags = cfg.clause_tags
    reach = tree.n_leaves if cfg.variant == "v3" else cfg.max_distance
    side = -1 if cfg.variant == "v2" else 0  # the phrase word rule 2 targets
    # the stack holds phrases: a node id enters one, and ~k leaves one whose
    # tag is column k; a phrase handles its word children on the spot
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        if nid < 0:
            counts[~nid] -= 1
            path.pop()
            continue
        node = nodes[nid]
        tag = node.tag
        k = column[tag]
        counts[k] += 1
        path.append(tag)
        stack.append(~k)
        first, last = node.span
        # rules 1 and 3: the boundary of a multi-word NP or clause
        if 0 < last - first <= reach and (tag == "NP" or tag in clause_tags):
            edges.add((first, last, tag))
        row, words, targets = None, [], []
        for c in node.children:
            kid = nodes[c]
            if kid.children:
                stack.append(c)
                targets.append(kid.span[side])
                continue
            if row is None:
                depth = len(path)
                if len(sums) != depth + 1:
                    sums = list(accumulate(repeat(1.0 / depth, depth), initial=0.0))
                row = [sums[k] for k in counts]
            i = kid.span[0]
            paths[i] = path.copy()
            rows[i] = row
            if kid.tag not in DEFAULT_PUNCT_TAGS:
                words.append(i)
        # rule 2: each word child to one word of each phrasal sibling
        for w in words:
            for t in targets:
                if abs(w - t) <= reach:
                    edges.add((w, t, tag) if w < t else (t, w, tag))
    return _ConstWalk(paths, (label_set, np.array(rows).reshape(
        tree.n_leaves, len(label_set))), frozenset(edges))


def build_const_paths(tree: ConstituencyTree) -> list[list[str]]:
    """Per-token list of internal constituent tags from the root to the word.

    Preterminal POS tags are excluded: the path stops at the phrase level.
    """
    return _walk_const(tree).paths


def const_label_rows(tree: ConstituencyTree) -> tuple[list[str], np.ndarray]:
    """The const view's ``label_rows`` for the tag paths of
    ``build_const_paths``: the bytes the loop over each path gives."""
    return _walk_const(tree).label_rows


def flatten_const_relations(tree: ConstituencyTree,
                            cfg: FlattenConfig = FlattenConfig()) -> frozenset:
    """Flatten phrase structure into typed word-to-word edges (rules 1-4)."""
    return _walk_const(tree, cfg).edges


def build_const_graph(s: ParsedSentence, cfg: FlattenConfig = FlattenConfig()) -> SyntacticGraph:
    """Constituency view: tag paths, label rows and edges from one walk."""
    walk = _walk_const(s.const_tree, cfg)
    paths, rows = walk.paths, walk.label_rows
    if cfg.variant == "v1":
        paths = [p[-1:] for p in paths]
        rows = _one_hot_rows([p[0] for p in paths])
    n = len(s.tokens)
    return SyntacticGraph(view=CONST_VIEW, n=n, node_labels=paths,
                          edges=walk.edges,
                          adjacency=_adjacency_from_edges(n, walk.edges),
                          label_rows=rows)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _label_str(label) -> str:
    return "-".join(label) if isinstance(label, list) else str(label)


def export_graph(g: SyntacticGraph, format: str, tokens: list[str] | None = None) -> str:
    """Deterministic serialization of a graph as JSON or Graphviz DOT."""
    sorted_edges = sorted(g.edges)
    if format == "json":
        payload = {
            "view": g.view,
            "nodes": [{"i": i, "label": g.node_labels[i]} for i in range(g.n)],
            "edges": [{"i": i, "j": j, "type": t} for i, j, t in sorted_edges],
        }
        return json.dumps(payload, indent=None, separators=(",", ":"))
    if format == "dot":
        def esc(text: str) -> str:
            return text.replace("\\", "\\\\").replace('"', '\\"')

        lines = [f"graph {g.view} {{"]
        for i in range(g.n):
            label = _label_str(g.node_labels[i])
            if tokens is not None:
                label = f"{esc(tokens[i])}\\n{esc(label)}"
            else:
                label = esc(label)
            lines.append(f'  n{i} [label="{label}"];')
        for i, j, t in sorted_edges:
            lines.append(f'  n{i} -- n{j} [label="{esc(t)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise UnknownFormat(f"unknown graph format {format!r}")
