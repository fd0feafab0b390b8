"""Corpus loading: parsed sentences, gold tuples and per-verb tagging instances.

Input sentences arrive fully parsed, one JSONL record per sentence (tokens,
bracketed constituency tree, dependency rows, verb indices, optional gold
tuples); those records are the only input format.  This module validates
them and expands each sentence into one BIO-labelled instance per candidate
verb.  Tokenization is taken as given and never altered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT_HEAD = -1  # head sentinel for the dependency root
REL = "REL"
MAX_ARG = 5  # the highest argument role a corpus may use


class CorpusError(Exception):
    """Base class for all corpus validation failures.

    ``line`` is the 1-based corpus line the failure is on, when known.
    """

    line = None


def at_line(exc: Exception, line: int) -> Exception:
    """Attach ``line`` to ``exc`` and its message, unless it has one."""
    if getattr(exc, "line", None) is None:
        exc.line = line
        exc.args = (f"line {line}: {exc}",)
    return exc


class UnbalancedBrackets(CorpusError):
    pass


class EmptyTree(CorpusError):
    pass


class MalformedTree(CorpusError):
    pass


class MissingRoot(CorpusError):
    pass


class MultipleRoots(CorpusError):
    pass


class CyclicHeads(CorpusError):
    pass


class OverlappingGoldSpans(CorpusError):
    pass


class SchemaViolation(CorpusError):
    pass


class AlignmentError(CorpusError):
    pass


def is_json_int(value) -> bool:
    """True for a JSON integer; a bool is an int subclass, a float is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_role(role: str) -> bool:
    """True for ``REL`` and ``ARG<k>``, k a non-empty run of ASCII digits
    (no sign, no ``_``)."""
    k = role[3:]
    return role == REL or (role.startswith("ARG") and k.isascii() and k.isdigit())


@dataclass(frozen=True)
class ConstNode:
    """One constituency-tree node: internal (with children) or preterminal POS.

    ``span`` is the inclusive (first, last) range of 0-based token indices
    the node covers; a preterminal POS node covers exactly its one word.
    """

    tag: str
    span: tuple[int, int]
    children: tuple[int, ...] = ()

    @property
    def is_preterminal(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ConstituencyTree:
    """Nodes in the order their brackets close (post-order).

    Every child id is below its parent's and the root is the last node, so a
    forward pass over ``nodes`` visits children first; the preterminals in
    id order are the words left to right.
    """

    nodes: tuple[ConstNode, ...]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def n_leaves(self) -> int:
        return self.nodes[-1].span[1] + 1


@dataclass(frozen=True)
class DependencyRows:
    """Per-token (head, deprel) with 0-based heads and ROOT_HEAD sentinel."""

    heads: tuple[int, ...]
    deprels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.heads)
        if len(self.deprels) != n:
            raise CorpusError("heads and deprels length mismatch")
        roots = [i for i, h in enumerate(self.heads) if h == ROOT_HEAD]
        if not roots:
            raise MissingRoot("no token has the ROOT head sentinel")
        if len(roots) > 1:
            raise MultipleRoots(f"tokens {roots} all claim the root")
        for i, h in enumerate(self.heads):
            if h != ROOT_HEAD and not (0 <= h < n):
                raise CyclicHeads(f"token {i} has out-of-range head {h}")
            if h == i:
                raise CyclicHeads(f"token {i} is its own head")
        # every token must reach the root without revisiting a node; a walk
        # stops at the first token an earlier walk visited, which reached it
        walk = [-1] * n  # the first walk through each token
        for i in range(n):
            j = i
            while j != ROOT_HEAD and walk[j] == -1:
                walk[j] = i
                j = self.heads[j]
            if j != ROOT_HEAD and walk[j] == i:
                raise CyclicHeads(f"head cycle through token {i}")


@dataclass(frozen=True)
class Extraction:
    """One relational tuple: role -> inclusive token span, plus confidence."""

    spans: dict[str, tuple[int, int]]
    indicator_verb: int
    confidence: float = 1.0

    def __post_init__(self):
        if REL not in self.spans:
            raise CorpusError("tuple lacks a REL span")
        if not 0.0 < self.confidence <= 1.0:
            raise CorpusError(f"confidence {self.confidence} outside (0, 1]")

    def texts(self, tokens: list[str]) -> dict[str, str]:
        return {role: " ".join(tokens[s:e + 1]) for role, (s, e) in self.spans.items()}


@dataclass(frozen=True)
class ParsedSentence:
    """Read-only after construction; safe to share across workers."""

    tokens: list[str]
    const_tree: ConstituencyTree
    dep_rows: DependencyRows
    verbs: list[int]
    gold_tuples: list[Extraction] = field(default_factory=list)

    def tuple_for(self, verb: int) -> Optional[Extraction]:
        for t in self.gold_tuples:
            if t.indicator_verb == verb:
                return t
        return None


@dataclass(frozen=True)
class TaggedInstance:
    """One (sentence, indicator verb) pair with its BIO label sequence."""

    sentence: ParsedSentence
    indicator_verb: int
    labels: tuple[str, ...]


# ---------------------------------------------------------------------------
# BIO tag inventory and label encoding
# ---------------------------------------------------------------------------

# the BIO tag set: O, B/I-REL, B/I-ARG0 .. B/I-ARG<MAX_ARG>
TAGS = ("O", "B-REL", "I-REL",
        *(f"{p}-ARG{k}" for k in range(MAX_ARG + 1) for p in "BI"))
TAG_IDS = {t: i for i, t in enumerate(TAGS)}


def check_spans_disjoint(spans: dict[str, tuple[int, int]]):
    taken: dict[int, str] = {}
    for role in sorted(spans):
        s, e = spans[role]
        for i in range(s, e + 1):
            if i in taken:
                raise OverlappingGoldSpans(
                    f"token {i} claimed by both {taken[i]} and {role}")
            taken[i] = role


def spans_to_bio(spans: dict[str, tuple[int, int]], n_tokens: int) -> list[str]:
    """Encode disjoint role spans as a BIO sequence of length ``n_tokens``."""
    check_spans_disjoint(spans)
    labels = ["O"] * n_tokens
    for role, (s, e) in spans.items():
        labels[s] = f"B-{role}"
        for i in range(s + 1, e + 1):
            labels[i] = f"I-{role}"
    return labels


def expand_instances(sentence: ParsedSentence) -> list[TaggedInstance]:
    """One instance per candidate verb; all-O when the verb yields no tuple."""
    n = len(sentence.tokens)
    out = []
    for verb in sentence.verbs:
        gold = sentence.tuple_for(verb)
        if gold is None:
            labels = ["O"] * n
        else:
            labels = spans_to_bio(gold.spans, n)
        out.append(TaggedInstance(sentence, verb, tuple(labels)))
    return out


# ---------------------------------------------------------------------------
# Bracketed-tree reader
# ---------------------------------------------------------------------------

def _tokenize_brackets(text: str) -> list[str]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "()":
            toks.append(c)
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def read_bracketed_tree(text: str) -> ConstituencyTree:
    """Parse a PTB-style bracketed string into a ConstituencyTree.

    Preterminal POS nodes are kept as nodes covering one word; words are
    numbered left to right.  One pass over the brackets with a stack of open
    nodes, so trees may nest to any depth.
    """
    toks = _tokenize_brackets(text)
    if not toks:
        raise EmptyTree("no brackets in input")
    if toks[0] != "(":
        raise UnbalancedBrackets("expected '(' at token 0")

    nodes: list[ConstNode] = []
    stack: list[tuple[str, list[int], list[str]]] = []  # tag, child ids, words
    next_leaf = 0
    expect_tag = True
    for tok in toks[1:]:
        if expect_tag:
            if tok in "()":
                raise MalformedTree("node without a tag")
            stack.append((tok, [], []))
            expect_tag = False
        elif not stack:
            raise UnbalancedBrackets("trailing material after the root bracket")
        elif tok == "(":
            expect_tag = True
        elif tok != ")":
            stack[-1][2].append(tok)
        else:
            tag, child_ids, words = stack.pop()
            if words and child_ids:
                raise MalformedTree(f"node {tag} mixes bare words and subtrees")
            if len(words) > 1:
                raise MalformedTree(f"preterminal {tag} covers several words")
            if words:
                nodes.append(ConstNode(tag, (next_leaf, next_leaf)))
                next_leaf += 1
            elif not child_ids:
                raise MalformedTree(f"node {tag} has no children")
            else:
                span = (nodes[child_ids[0]].span[0], nodes[child_ids[-1]].span[1])
                nodes.append(ConstNode(tag, span, tuple(child_ids)))
            if stack:
                stack[-1][1].append(len(nodes) - 1)
    if expect_tag:
        raise MalformedTree("node without a tag")
    if stack:
        raise UnbalancedBrackets("missing ')'")
    return ConstituencyTree(nodes=tuple(nodes))


# ---------------------------------------------------------------------------
# JSONL corpus
# ---------------------------------------------------------------------------

def _build_sentence(rec: dict) -> ParsedSentence:
    if not isinstance(rec, dict):
        raise SchemaViolation("a sentence record must be a JSON object")
    for key in ("tokens", "const_ptb", "dep_conllu", "verbs"):
        if key not in rec:
            raise SchemaViolation(f"missing key {key!r}")
    tokens = rec["tokens"]
    if not (isinstance(tokens, list)
            and all(isinstance(t, str) and t for t in tokens)):
        raise SchemaViolation("tokens must be a list of non-empty strings")
    n = len(tokens)

    if not isinstance(rec["const_ptb"], str):
        raise SchemaViolation("const_ptb must be a bracketed-tree string")
    tree = read_bracketed_tree(rec["const_ptb"])
    if tree.nodes[tree.root].is_preterminal:
        # the word would sit under no phrase and have an empty tag path
        raise MalformedTree(f"the root {tree.nodes[tree.root].tag} is a bare "
                            f"preterminal; wrap it in a phrase")
    if tree.n_leaves != n:
        raise AlignmentError(
            f"constituency tree has {tree.n_leaves} leaves for {n} tokens")

    pairs = rec["dep_conllu"]
    if not (isinstance(pairs, list)
            and all(isinstance(p, list) and len(p) == 2 and is_json_int(p[0])
                    and isinstance(p[1], str) for p in pairs)):
        raise SchemaViolation("dep_conllu must be a list of [head, deprel] pairs")
    if len(pairs) != n:
        raise AlignmentError(f"{len(pairs)} dependency rows for {n} tokens")
    try:
        dep = DependencyRows(heads=tuple(h for h, _ in pairs),
                             deprels=tuple(d for _, d in pairs))
    except CorpusError as exc:
        raise AlignmentError(str(exc)) from exc

    verbs = rec["verbs"]
    if not (isinstance(verbs, list) and all(map(is_json_int, verbs))):
        raise SchemaViolation("verbs must be a list of token indices")
    if len(set(verbs)) != len(verbs):
        raise SchemaViolation("duplicate verb indices")
    for v in verbs:
        if not 0 <= v < n:
            raise AlignmentError(f"verb index {v} out of range")

    tuples = []
    seen_verbs = set()
    trecs = rec.get("tuples", [])
    if not isinstance(trecs, list):
        raise SchemaViolation("tuples must be a list")
    for trec in trecs:
        if not (isinstance(trec, dict) and "verb" in trec and "spans" in trec):
            raise SchemaViolation("tuple record needs 'verb' and 'spans'")
        verb = trec["verb"]
        if not is_json_int(verb):
            raise SchemaViolation(f"tuple verb {verb!r} is not an integer")
        if verb not in verbs:
            raise AlignmentError(f"tuple verb {verb} not in verb list")
        if verb in seen_verbs:
            raise SchemaViolation(f"verb {verb} aligned to several tuples")
        seen_verbs.add(verb)
        if not isinstance(trec["spans"], dict):
            raise SchemaViolation("tuple spans must be an object")
        spans = {}
        for role, span in trec["spans"].items():
            if not is_role(role):
                raise SchemaViolation(f"unknown role {role!r}")
            if role != REL and int(role[3:]) > MAX_ARG:
                raise SchemaViolation(f"role {role!r} beyond ARG{MAX_ARG}")
            if not (isinstance(span, list) and len(span) == 2
                    and all(map(is_json_int, span))):
                raise SchemaViolation(f"{role} span {span!r} is not two indices")
            s, e = span
            if not (0 <= s <= e < n):
                raise AlignmentError(f"{role} span [{s},{e}] out of bounds")
            spans[role] = (s, e)
        if REL not in spans:
            raise SchemaViolation("tuple lacks REL span")
        rs, re_ = spans[REL]
        if not rs <= verb <= re_:
            raise AlignmentError(f"REL span [{rs},{re_}] misses verb {verb}")
        check_spans_disjoint(spans)
        tuples.append(Extraction(spans=spans, indicator_verb=verb))

    return ParsedSentence(tokens=list(tokens), const_tree=tree, dep_rows=dep,
                          verbs=list(verbs), gold_tuples=tuples)


def parse_json(text: str, what: str = "JSON"):
    """The JSON value of ``text``.  Bad JSON, and JSON nested too deeply for
    the parser, is a SchemaViolation whose message starts ``bad <what>: ``.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = "column" if exc.lineno == 1 else f"line {exc.lineno} column"
        raise SchemaViolation(
            f"bad {what}: {exc.msg} at {where} {exc.colno}") from exc
    except RecursionError as exc:
        raise SchemaViolation(f"bad {what}: nested too deeply") from exc


def read_jsonl(path: str | Path, build) -> list:
    """``build(value, line)`` for the JSON value of each non-blank line.

    Lines count from 1 and end at \\n, \\r or \\r\\n.  Bytes that are not
    UTF-8 and bad JSON are a SchemaViolation; it, and any CorpusError or
    ValueError that ``build`` raises, carries the line.
    """
    out = []
    with open(path, "rb") as f:
        # each chunk ends at \n, so no \r\n straddles two chunks
        lines = (raw for chunk in f for raw in chunk.splitlines())
        for line, raw in enumerate(lines, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise at_line(SchemaViolation(
                    f"not UTF-8: {exc.reason} at byte {exc.start + 1}"),
                    line) from exc
            if not text.strip():
                continue
            try:
                out.append(build(parse_json(text), line))
            except (CorpusError, ValueError) as exc:
                raise at_line(exc, line)
    return out


def load_corpus(path: str | Path) -> list[ParsedSentence]:
    """Load a JSONL corpus; every error carries its line, counted from 1."""
    return read_jsonl(path, lambda rec, line: _build_sentence(rec))


def sentence_to_record(s: ParsedSentence) -> dict:
    """Serialize back to the JSONL schema (inverse of loading)."""
    return {
        "tokens": list(s.tokens),
        "const_ptb": write_bracketed_tree(s),
        "dep_conllu": [[h, d] for h, d in zip(s.dep_rows.heads, s.dep_rows.deprels)],
        "verbs": list(s.verbs),
        "tuples": [
            {"verb": t.indicator_verb,
             "spans": {r: list(sp) for r, sp in sorted(t.spans.items())}}
            for t in s.gold_tuples
        ],
    }


def write_bracketed_tree(s: ParsedSentence) -> str:
    texts: list[str] = []
    for node in s.const_tree.nodes:
        if node.is_preterminal:
            inner = s.tokens[node.span[0]]
        else:
            inner = " ".join(texts[c] for c in node.children)
        texts.append(f"({node.tag} {inner})")
    return texts[-1]


def save_corpus(sentences: list[ParsedSentence], path: str | Path):
    with open(path, "w", encoding="utf-8") as f:
        for s in sentences:
            f.write(json.dumps(sentence_to_record(s)) + "\n")
