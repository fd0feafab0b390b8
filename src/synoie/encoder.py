"""Contextual token representations from word + verb-indicator embeddings.

The default encoder mixes a 3-token window through one ReLU layer, as two
fused autodiff nodes: the word-row gather and mix of the unmarked rows, once
over the row stack of a batch's sentences, and the marked rows plus the
ReLU, for one verb, for the row stack of a training chunk's instances (one
marked verb per sentence) or for a sentence's k verbs stacked as
``(k, n, d_h)``.
A config that names ``encoder_vectors`` replaces it with the
``PrecomputedEncoder``, which replays fixed per-token vectors from that file.
Either encoder's ``base`` takes a list of sentences and returns one tensor
over their row stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import ParsedSentence, is_json_int, read_jsonl

UNK = "<unk>"


class Vocabulary:
    """Dense token-id map over lowercased surfaces, with a reserved UNK."""

    def __init__(self, tokens: list[str]):
        if UNK not in tokens:
            tokens = [UNK] + list(tokens)
        self.tokens = list(tokens)
        self.ids = {t: i for i, t in enumerate(self.tokens)}
        if len(self.ids) != len(self.tokens):
            raise ValueError("duplicate vocabulary entries")
        self.unk_id = self.ids[UNK]

    def __len__(self):
        return len(self.tokens)

    def lookup(self, surface: str) -> int:
        return self.ids.get(surface.lower(), self.unk_id)

    @classmethod
    def from_sentences(cls, sentences: list[ParsedSentence]) -> "Vocabulary":
        seen = {t.lower() for s in sentences for t in s.tokens}
        return cls([UNK] + sorted(seen))


@dataclass
class EncoderParams:
    """Trainable tensors: word table, 2-row indicator table, window mixer."""

    w_word: Tensor   # (V, d_h)
    w_verb: Tensor   # (2, d_h)
    w_mix: Tensor    # (d_h, 3*d_h)
    b_mix: Tensor    # (d_h,)


class ToyEncoder:
    """Window-3 mixing layer: h_i = ReLU(W [x_{i-1}; x_i; x_{i+1}] + b) over
    the embedded rows x, zero-padded at both ends.  Row x_i is token i's word
    row plus indicator row 1 at the verb and row 0 elsewhere.

    The mix is linear before its ReLU, so ``base`` mixes the rows with no
    verb marked once per sentence, and ``encode`` adds what marking one verb
    changes: three rows at most.
    """

    def __init__(self, params: EncoderParams, vocab: Vocabulary):
        self.params = params
        self.vocab = vocab

    def base(self, sentences: list[ParsedSentence],
             sentence_ids: list[int | None] | None = None) -> Tensor:
        """(N, d_h) pre-activation with no verb marked, which every verb
        shares, over the row stack of ``sentences``: one node, whose windows
        stop at each sentence's ends."""
        p = self.params
        get, unk = self.vocab.ids.get, self.vocab.unk_id
        ids = [get(t.lower(), unk) for s in sentences for t in s.tokens]
        return ad.window_linear(p.w_word, ids, p.w_verb, p.w_mix, p.b_mix,
                                [len(s.tokens) for s in sentences])

    def encode(self, base: Tensor, indicator_verb, lengths=None) -> Tensor:
        """(n, d_h) states of one verb from the sentence's ``base``, or the
        (k, n, d_h) stack of each of a sequence of k verbs, read only.  With
        ``lengths``, ``base`` is the row stack of sentences of those lengths
        and ``indicator_verb`` holds one verb of each: their (N, d_h) row
        stack of states."""
        return ad.marked_window_relu(base, self.params.w_verb, self.params.w_mix,
                                     indicator_verb, lengths)


class PrecomputedEncoder:
    """Replays fixed per-token vectors keyed by sentence id (non-trainable)."""

    def __init__(self, vectors: dict[int, np.ndarray], d_h: int):
        self.vectors = vectors
        self.d_h = d_h

    @classmethod
    def load(cls, path: str | Path, d_h: int) -> "PrecomputedEncoder":
        """Read ``{"sentence_id", "vectors"}`` lines, each a finite (n, d_h) array."""
        vectors = {}

        def add(rec, line):
            if not isinstance(rec, dict):
                raise ValueError("vectors line is not a JSON object")
            for key in ("sentence_id", "vectors"):
                if key not in rec:
                    raise ValueError(f"missing key {key!r}")
            sid = rec["sentence_id"]
            if not is_json_int(sid):
                raise ValueError(f"sentence_id {sid!r} is not an integer")
            try:
                arr = np.asarray(rec["vectors"], dtype=np.float64)
            except TypeError as exc:
                raise ValueError(f"vectors for sentence {sid}: {exc}") from exc
            if arr.ndim != 2 or arr.shape[1] != d_h or not np.isfinite(arr).all():
                raise ValueError(f"vectors for sentence {sid} are not a finite "
                                 f"2-D array of width {d_h} (shape {arr.shape})")
            if sid in vectors:
                raise ValueError(f"duplicate sentence_id {sid}")
            vectors[sid] = arr

        read_jsonl(path, add)
        if not vectors:
            raise ValueError(f"no vectors found in {path}")
        return cls(vectors, d_h)

    def base(self, sentences: list[ParsedSentence],
             sentence_ids: list[int | None]) -> Tensor:
        """The constant row stack of the stored vectors of ``sentence_ids``,
        each checked against its sentence."""
        arrs = []
        for sentence, sentence_id in zip(sentences, sentence_ids, strict=True):
            if sentence_id not in self.vectors:
                raise KeyError(f"no precomputed vectors for sentence {sentence_id}")
            arr = self.vectors[sentence_id]
            if arr.shape != (len(sentence.tokens), self.d_h):
                raise ValueError(
                    f"vectors for sentence {sentence_id} have shape {arr.shape}, "
                    f"expected ({len(sentence.tokens)}, {self.d_h})")
            arrs.append(arr)
        return ad.constant(arrs[0] if len(arrs) == 1 else np.vstack(arrs))

    def encode(self, base: Tensor, indicator_verb, lengths=None) -> Tensor:
        """The stored vectors ``base``, whatever the verb: broadcast to
        (k, n, d_h) for a sequence of k verbs without ``lengths``."""
        if lengths is not None or isinstance(indicator_verb, (int, np.integer)):
            return base
        return ad.broadcast_verbs(base, len(indicator_verb))
