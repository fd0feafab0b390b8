"""Tuple scoring: exact n-ary matching, lexical partial matching, P-R/AUC.

Matching compares span surface text (whitespace-joined, case-folded), never
token indices, so tokenization-preserving transforms do not break it.
Assignment is greedy one-to-one: by descending confidence for exact mode,
by descending pair F1 for lexical mode.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .corpus import Extraction, ParsedSentence, REL


class UnalignedIds(Exception):
    pass


@dataclass(frozen=True)
class TupleTexts:
    """Role -> span text, plus the tuple's confidence."""

    texts: dict[str, str]
    confidence: float = 1.0

    def __post_init__(self):
        # the P-R sweep groups equal confidences, and NaN equals nothing
        if not math.isfinite(self.confidence):
            raise ValueError(f"confidence {self.confidence!r} is not finite")

    @classmethod
    def from_extraction(cls, e: Extraction, tokens) -> "TupleTexts":
        return cls(texts=e.texts(tokens), confidence=e.confidence)

    def folded(self) -> dict[str, str]:
        return {r: t.lower() for r, t in self.texts.items()}

    def arg_roles(self) -> list[str]:
        return sorted((r for r in self.texts if r != REL), key=lambda r: int(r[3:]))

    def token_count(self) -> int:
        return sum(len(t.split()) for t in self.texts.values())


def to_binary(t: TupleTexts) -> TupleTexts:
    """Collapse an n-ary tuple to <ARG0, REL, ARG1..n concatenated>."""
    texts = {}
    if REL in t.texts:
        texts[REL] = t.texts[REL]
    args = t.arg_roles()
    if args and args[0] == "ARG0":
        texts["ARG0"] = t.texts["ARG0"]
        rest = args[1:]
    else:
        rest = args
    if rest:
        texts["ARG1"] = " ".join(t.texts[r] for r in rest)
    return TupleTexts(texts=texts, confidence=t.confidence)


@dataclass
class ScoreReport:
    precision: float
    recall: float
    f1: float
    auc: float
    curve: list[tuple[float, float]] = field(default_factory=list)  # (recall, precision)

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall,
                "f1": self.f1, "auc": self.auc,
                "curve": [[r, p] for r, p in self.curve]}


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def trapezoid_auc(curve: list[tuple[float, float]]) -> float:
    """Trapezoidal area under (recall, precision) points, extended to recall 0."""
    if not curve:
        return 0.0
    pts = [(0.0, curve[0][1])] + list(curve)
    area = 0.0
    for (r0, p0), (r1, p1) in zip(pts, pts[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return area


def _sweep(entries: list[tuple[float, float, float]], gold_den: float):
    """Cumulative P-R points at every distinct confidence, descending.

    ``entries`` are (confidence, numerator share, denominator share) per
    prediction; the numerator also counts toward recall against ``gold_den``.
    """
    entries = sorted(entries, key=lambda e: -e[0])
    curve = []
    num = den = 0.0
    i = 0
    while i < len(entries):
        conf = entries[i][0]
        while i < len(entries) and entries[i][0] == conf:
            num += entries[i][1]
            den += entries[i][2]
            i += 1
        p = num / den if den > 0 else 0.0
        r = num / gold_den if gold_den > 0 else 0.0
        curve.append((r, p))
    return curve


def pr_curve_auc(scored: list[tuple[float, bool]], n_gold: int):
    """P-R curve and AUC from (confidence, correct) pairs against n_gold."""
    curve = _sweep([(c, 1.0 if hit else 0.0, 1.0) for c, hit in scored],
                   float(n_gold))
    return curve, trapezoid_auc(curve)


def _check_alignment(pred, gold):
    if len(pred) != len(gold):
        raise UnalignedIds(f"{len(pred)} predicted sentences vs {len(gold)} gold")


def exact_match_score(pred: list[list[TupleTexts]],
                      gold: list[list[TupleTexts]]) -> ScoreReport:
    """Whole-tuple matching: equal role sets and identical folded texts."""
    _check_alignment(pred, gold)
    n_gold = sum(len(g) for g in gold)
    scored: list[tuple[float, bool]] = []
    for ps, gs in zip(pred, gold):
        gold_folded = [g.folded() for g in gs]
        taken = [False] * len(gs)
        for p in sorted(ps, key=lambda t: -t.confidence):
            pf = p.folded()
            hit = False
            for k, gf in enumerate(gold_folded):
                if not taken[k] and pf == gf:
                    taken[k] = True
                    hit = True
                    break
            scored.append((p.confidence, hit))
    matched = sum(1 for _, hit in scored if hit)
    n_pred = len(scored)
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    curve, auc = pr_curve_auc(scored, n_gold)
    return ScoreReport(precision=precision, recall=recall,
                       f1=_f1(precision, recall), auc=auc, curve=curve)


def _role_pairing(p: TupleTexts, g: TupleTexts) -> list[tuple[str, str]]:
    pairs = []
    if REL in p.texts and REL in g.texts:
        pairs.append((REL, REL))
    pairs.extend(zip(p.arg_roles(), g.arg_roles()))
    return pairs


def _pair_overlap(p: TupleTexts, g: TupleTexts) -> int:
    """Role-wise shared token count (REL vs REL, args zipped in order)."""
    pf, gf = p.folded(), g.folded()
    total = 0
    for pr, gr in _role_pairing(p, g):
        cp = Counter(pf[pr].split())
        cg = Counter(gf[gr].split())
        total += sum((cp & cg).values())
    return total


def lexical_match_score(pred: list[list[TupleTexts]],
                        gold: list[list[TupleTexts]]) -> ScoreReport:
    """Token-overlap matching with greedy pair-F1 assignment.

    Corpus precision/recall are micro-averages: shared tokens of assigned
    pairs over all predicted / all gold tokens.
    """
    _check_alignment(pred, gold)
    gold_tokens = sum(g.token_count() for gs in gold for g in gs)
    entries: list[tuple[float, float, float]] = []
    total_overlap = 0.0
    for ps, gs in zip(pred, gold):
        cands = []
        for pi, p in enumerate(ps):
            for gi, g in enumerate(gs):
                ov = _pair_overlap(p, g)
                if ov == 0:
                    continue
                pp = ov / p.token_count() if p.token_count() else 0.0
                rr = ov / g.token_count() if g.token_count() else 0.0
                cands.append((_f1(pp, rr), pi, gi, ov))
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))
        pred_overlap = {pi: 0.0 for pi in range(len(ps))}
        p_used, g_used = set(), set()
        for f1, pi, gi, ov in cands:
            if f1 <= 0 or pi in p_used or gi in g_used:
                continue
            p_used.add(pi)
            g_used.add(gi)
            pred_overlap[pi] = float(ov)
        for pi, p in enumerate(ps):
            entries.append((p.confidence, pred_overlap[pi], float(p.token_count())))
            total_overlap += pred_overlap[pi]
    pred_tokens = sum(e[2] for e in entries)
    precision = total_overlap / pred_tokens if pred_tokens else 0.0
    recall = total_overlap / gold_tokens if gold_tokens else 0.0
    curve = _sweep(entries, float(gold_tokens))
    return ScoreReport(precision=precision, recall=recall,
                       f1=_f1(precision, recall), auc=trapezoid_auc(curve),
                       curve=curve)


def score_tuples(pred, gold, mode: str = "exact",
                 binary: bool = False) -> ScoreReport:
    if binary:
        pred = [[to_binary(t) for t in ts] for ts in pred]
        gold = [[to_binary(t) for t in ts] for ts in gold]
    if mode == "exact":
        return exact_match_score(pred, gold)
    if mode == "lexical":
        return lexical_match_score(pred, gold)
    raise ValueError(f"unknown scoring mode {mode!r}")


def gold_tuple_texts(sentences: list[ParsedSentence]) -> list[list[TupleTexts]]:
    return [[TupleTexts.from_extraction(t, s.tokens) for t in s.gold_tuples]
            for s in sentences]
