"""Contextual token representations from word + verb-indicator embeddings.

The default encoder mixes a 3-token window through one ReLU layer, as two
fused autodiff nodes: the mix of the unmarked rows, once per sentence, and
per verb the marked rows plus the ReLU.  A config that names
``encoder_vectors`` replaces it with the ``PrecomputedEncoder``, which replays
fixed per-token vectors from that file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import ParsedSentence, is_json_int

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
        seen = {t.lowercased for s in sentences for t in s.tokens}
        return cls([UNK] + sorted(seen))


@dataclass
class EncoderParams:
    """Trainable tensors: word table, 2-row indicator table, window mixer."""

    w_word: Tensor   # (V, d_h)
    w_verb: Tensor   # (2, d_h)
    w_mix: Tensor    # (d_h, 3*d_h)
    b_mix: Tensor    # (d_h,)

    @classmethod
    def init(cls, vocab_size: int, d_h: int, rng: np.random.Generator) -> "EncoderParams":
        u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape)
        return cls(
            w_word=ad.parameter(u(vocab_size, d_h)),
            w_verb=ad.parameter(u(2, d_h)),
            w_mix=ad.parameter(u(d_h, 3 * d_h)),
            b_mix=ad.parameter(np.zeros(d_h)),
        )

    def named(self) -> list[tuple[str, Tensor]]:
        return [("enc.w_word", self.w_word), ("enc.w_verb", self.w_verb),
                ("enc.w_mix", self.w_mix), ("enc.b_mix", self.b_mix)]


def word_rows(params: EncoderParams, vocab: Vocabulary, surfaces: list[str]) -> Tensor:
    """(n, d_h): each token's word-table row, the same for every verb."""
    return ad.gather_rows(params.w_word, [vocab.lookup(s) for s in surfaces])


def embed(params: EncoderParams, words: Tensor, indicator_verb: int) -> Tensor:
    """(n, d_h) rows: word rows + indicator row (row 1 only at the verb; a
    verb outside [0, n) marks no row)."""
    flags = (np.arange(words.shape[0]) == indicator_verb).astype(np.intp)
    return ad.add(words, ad.gather_rows(params.w_verb, flags))


# an indicator verb that marks no row
NO_VERB = -1


class ToyEncoder:
    """Window-3 mixing layer: h_i = ReLU(W [x_{i-1}; x_i; x_{i+1}] + b) over
    the embedded rows x, zero-padded at both ends.

    The mix is linear before its ReLU, so ``base`` mixes the rows with no
    verb marked once per sentence, and ``encode`` adds what marking one verb
    changes: three rows at most.
    """

    def __init__(self, params: EncoderParams, vocab: Vocabulary):
        self.params = params
        self.vocab = vocab

    def base(self, sentence: ParsedSentence, sentence_id: int | None = None) -> Tensor:
        """(n, d_h) pre-activation with no verb marked, which every verb shares."""
        words = word_rows(self.params, self.vocab, [t.surface for t in sentence.tokens])
        return ad.window_linear(embed(self.params, words, NO_VERB),
                                self.params.w_mix, self.params.b_mix)

    def encode(self, base: Tensor, indicator_verb: int) -> Tensor:
        """(n, d_h) states of one verb from the sentence's ``base``."""
        return ad.marked_window_relu(base, self.params.w_verb, self.params.w_mix,
                                     indicator_verb)


class PrecomputedEncoder:
    """Replays fixed per-token vectors keyed by sentence id (non-trainable)."""

    def __init__(self, vectors: dict[int, np.ndarray], d_h: int):
        self.vectors = vectors
        self.d_h = d_h

    @classmethod
    def load(cls, path: str | Path, d_h: int) -> "PrecomputedEncoder":
        """Read ``{"sentence_id", "vectors"}`` lines, each a finite (n, d_h) array."""
        vectors = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"vectors line is not a JSON object: {rec!r}")
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
        if not vectors:
            raise ValueError(f"no vectors found in {path}")
        return cls(vectors, d_h)

    def base(self, sentence: ParsedSentence, sentence_id: int | None = None) -> Tensor:
        """The stored vectors of ``sentence_id``, checked against the sentence."""
        if sentence_id not in self.vectors:
            raise KeyError(f"no precomputed vectors for sentence {sentence_id}")
        arr = self.vectors[sentence_id]
        if arr.shape != (len(sentence.tokens), self.d_h):
            raise ValueError(
                f"vectors for sentence {sentence_id} have shape {arr.shape}, "
                f"expected ({len(sentence.tokens)}, {self.d_h})")
        return ad.constant(arr)

    def encode(self, base: Tensor, indicator_verb: int) -> Tensor:
        """The stored vectors ``base``, whatever the verb."""
        return base
