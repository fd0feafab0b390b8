"""Tagging head, BIO decoding, and per-verb tuple extraction.

Extraction builds one sentence state, as ``Model.sentence_states``' batch
of one sentence, so it records no row-block node.  It asks ``predict`` for
each verb in turn, and the first call runs one stacked forward over the
sentence's k verbs, ``(k, n, ·)``, which the state keeps and each verb's
call reads a row of; a long sentence's verbs stack in bounded chunks
(``model.STACK_ENTRIES``).
"""

from __future__ import annotations

import math

from . import autodiff as ad
from .corpus import Extraction, ParsedSentence, REL


def tag_logits(h_final, w_tag, b_tag):
    """(n, n_tags) tag scores from one linear layer over the fused states."""
    return ad.linear(h_final, w_tag, b_tag)


def bio_runs(tags: list[str]) -> list[tuple[str, int, int]]:
    """Contiguous (role, start, end) runs; stray I-X is repaired to B-X."""
    runs = []
    role, start = None, None
    for i, tag in enumerate(tags):
        if tag == "O":
            if role is not None:
                runs.append((role, start, i - 1))
                role = None
            continue
        prefix, cur = tag.split("-", 1)
        if prefix == "B" or role != cur:
            # B starts a run; an I with no live run of the same role also does
            if role is not None:
                runs.append((role, start, i - 1))
            role, start = cur, i
    if role is not None:
        runs.append((role, start, len(tags) - 1))
    return runs


def decode_bio(tags: list[str], probs: list[float],
               indicator_verb: int) -> Extraction | None:
    """Turn one predicted tag sequence into a tuple, or None.

    Only the first span of each role is kept.  A sequence without any REL
    span (in particular an all-O sequence) produces no tuple.  Confidence is
    the geometric mean of the argmax probabilities at non-O positions.
    """
    spans: dict[str, tuple[int, int]] = {}
    for role, start, end in bio_runs(tags):
        if role not in spans:
            spans[role] = (start, end)
    if REL not in spans:
        return None
    scored = [p for t, p in zip(tags, probs) if t != "O"]
    if scored:
        confidence = math.exp(sum(math.log(p) for p in scored) / len(scored))
    else:
        confidence = 1.0
    return Extraction(spans=spans, indicator_verb=indicator_verb,
                      confidence=min(confidence, 1.0))


def extract(sentence: ParsedSentence, model, graphs,
            sentence_id: int | None = None) -> list[Extraction]:
    """Tag each candidate verb; at most one tuple per verb.

    The verbs share one state, built here by ``model.sentence_states`` as a
    batch of one sentence, and one stacked forward, which the first
    ``model.predict`` over the state builds.
    """
    if not sentence.verbs:
        return []
    with ad.no_grad():
        [state] = model.sentence_states([sentence], [graphs], [sentence_id])
    out = []
    for verb in sentence.verbs:
        tags, probs = model.predict(sentence, verb, graphs, sentence_id, state)
        t = decode_bio(tags, probs, verb)
        if t is not None:
            out.append(t)
    return out
