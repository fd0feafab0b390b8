"""Seeded multi-clause sentences built from the ``synoie.synthetic`` templates.

Each template clause loses its final period; the clauses are joined with
"and" under one constituency root ``(S (S ...) (CC and) (S ...) (. .))``.
The first clause's dependency root is the sentence root, every later clause
root attaches to it as ``conj``, each "and" attaches to the clause it opens
as ``cc``, and the closing period attaches to the root as ``punct``.  Verb
indices and gold tuple spans are shifted by the clause's token offset, so a
sentence of k clauses has the sum of the k template lengths as its length.
"""

from __future__ import annotations

import json

import numpy as np

from synoie import corpus, synthetic

PERIOD_LEAF = " (. .))"


def _clause_body(rec: dict) -> dict:
    """A template record without its closing period (token, leaf, dep row)."""
    if (rec["tokens"][-1] != "." or not rec["const_ptb"].endswith(PERIOD_LEAF)
            or rec["dep_conllu"][-1][1] != "punct"):
        raise ValueError("template clause does not end in a period")
    return {"tokens": rec["tokens"][:-1],
            "const_ptb": rec["const_ptb"][:-len(PERIOD_LEAF)] + ")",
            "dep_conllu": rec["dep_conllu"][:-1],
            "verbs": rec["verbs"], "tuples": rec["tuples"]}


def join_clauses(clauses: list[dict]) -> dict:
    """One corpus record joining template records under a single root."""
    if not clauses:
        raise ValueError("a sentence needs at least one clause")
    tokens, deps, parts, verbs, tuples = [], [], [], [], []
    root = None
    for rec in map(_clause_body, clauses):
        cc_row = None
        if tokens:
            cc_row = len(tokens)
            tokens.append("and")
            deps.append(None)  # head filled in once this clause's root is known
            parts.append("(CC and)")
        off = len(tokens)
        tokens += rec["tokens"]
        for i, (head, rel) in enumerate(rec["dep_conllu"]):
            if head != -1:
                deps.append([head + off, rel])
            elif root is None:
                root = off + i
                deps.append([-1, "ROOT"])
            else:
                deps.append([root, "conj"])
                deps[cc_row] = [off + i, "cc"]
        parts.append(rec["const_ptb"])
        verbs += [v + off for v in rec["verbs"]]
        tuples += [{"verb": t["verb"] + off,
                    "spans": {r: [s + off, e + off] for r, (s, e) in t["spans"].items()}}
                   for t in rec["tuples"]]
    tokens.append(".")
    deps.append([root, "punct"])
    return {"tokens": tokens, "const_ptb": f"(S {' '.join(parts)} (. .))",
            "dep_conllu": deps, "verbs": verbs, "tuples": tuples}


def compose(clause_counts: list[int], seed: int) -> list[dict]:
    """One record per entry of ``clause_counts``, words and order from ``seed``.

    A k-clause sentence uses every template k // 4 times plus the first
    k % 4 templates, in an order drawn from ``seed``.  Its length, verb count
    and parse labels depend on k alone, so per-sentence cost does not swing
    with the seed; the seed picks the words and the order of the clauses.
    """
    rng = np.random.default_rng(seed)
    templates = synthetic.TEMPLATES
    records = []
    for k in clause_counts:
        picks = list(range(len(templates))) * (k // len(templates))
        picks += list(range(k % len(templates)))
        rng.shuffle(picks)
        records.append(join_clauses([templates[t](rng) for t in picks]))
    return records


def fixed_clauses(template_names: list[str], seed: int) -> dict:
    """One record from the named templates in order (words drawn from ``seed``)."""
    rng = np.random.default_rng(seed)
    by_name = {t.__name__.lstrip("_"): t for t in synthetic.TEMPLATES}
    return join_clauses([by_name[name](rng) for name in template_names])


def write_and_load(records: list[dict], path) -> list:
    """Write ``records`` as JSONL and load them back through ``load_corpus``."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    sentences = corpus.load_corpus(path)
    if len(sentences) != len(records):
        raise ValueError(f"{len(records)} records written, {len(sentences)} loaded")
    return sentences
