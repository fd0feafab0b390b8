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
    has one label, a const node the tags of its path.  When not given it is
    built from ``node_labels``; ``build_const_graph`` gives it from one walk
    down the tree (``const_label_rows``).
    """

    view: str
    n: int
    node_labels: list
    edges: frozenset
    adjacency: np.ndarray = field(repr=False)
    label_rows: tuple[list[str], np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.label_rows is None:
            paths = (self.node_labels if self.view == CONST_VIEW
                     else [[label] for label in self.node_labels])
            label_set = sorted({tag for path in paths for tag in path})
            column = {tag: k for k, tag in enumerate(label_set)}
            rows = np.zeros((self.n, len(label_set)))
            for i, path in enumerate(paths):
                for tag in path:
                    rows[i, column[tag]] += 1.0 / len(path)
            self.label_rows = label_set, rows

    @cached_property
    def selection(self) -> np.ndarray:
        """The (n, n) float mask of the edges without self-loops, which the
        R1 and R3 losses read: a node never selects itself.  Built on first
        use, then kept."""
        sel = self.adjacency.astype(float)
        np.fill_diagonal(sel, 0.0)
        return sel


def _adjacency_from_edges(n: int, edges) -> np.ndarray:
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
                          adjacency=_adjacency_from_edges(n, edges))


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
    are the bytes the per-path loop of ``SyntacticGraph`` gives.  Those
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
    paths = build_const_paths(s.const_tree)
    if cfg.variant == "v1":
        # one tag a path: the rows are built from the paths in O(n)
        paths, rows = [p[-1:] for p in paths], None
    else:
        rows = const_label_rows(s.const_tree)
    edges = flatten_const_relations(s.const_tree, cfg)
    n = len(s.tokens)
    return SyntacticGraph(view=CONST_VIEW, n=n, node_labels=paths,
                          edges=edges,
                          adjacency=_adjacency_from_edges(n, edges),
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
