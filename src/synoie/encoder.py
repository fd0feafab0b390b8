"""Contextual token representations from word + verb-indicator embeddings.

The default encoder mixes a 3-token window through one ReLU layer; any
token-aligned encoder of the same output width can be substituted (the
``PrecomputedEncoder`` replays vectors from a file).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import ParsedSentence

UNK = "<unk>"

TOY = "toy"
PRECOMPUTED = "external-precomputed"
ENCODER_KINDS = (TOY, PRECOMPUTED)


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

    def save(self, path: str | Path):
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([l for l in lines if l])


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


def embed(params: EncoderParams, vocab: Vocabulary, surfaces: list[str],
          indicator_verb: int) -> Tensor:
    """(n, d_h) rows: word embedding + indicator row (row 1 only at the verb)."""
    words = ad.gather_rows(params.w_word, [vocab.lookup(s) for s in surfaces])
    flags = (np.arange(len(surfaces)) == indicator_verb).astype(np.intp)
    return ad.add(words, ad.gather_rows(params.w_verb, flags))


class ToyEncoder:
    """Window-3 mixing layer: h_i = ReLU(W [w_{i-1}; w_i; w_{i+1}] + b)."""

    kind = TOY

    def __init__(self, params: EncoderParams, vocab: Vocabulary):
        self.params = params
        self.vocab = vocab

    @property
    def d_h(self) -> int:
        return self.params.b_mix.shape[0]

    def encode(self, sentence: ParsedSentence, indicator_verb: int,
               sentence_id: int | None = None) -> Tensor:
        ws = embed(self.params, self.vocab, [t.surface for t in sentence.tokens],
                   indicator_verb)
        return self.contextualize(ws)

    def contextualize(self, ws: Tensor) -> Tensor:
        """(n, d_h) -> (n, d_h); the window is zero-padded at both ends."""
        window = ad.hstack([ad.shift_rows(ws, 1), ws, ad.shift_rows(ws, -1)])
        mixed = ad.matmul(window, self.params.w_mix, transpose_b=True)
        return ad.relu(ad.add(mixed, self.params.b_mix))


class PrecomputedEncoder:
    """Replays fixed per-token vectors keyed by sentence id (non-trainable)."""

    kind = PRECOMPUTED

    def __init__(self, vectors: dict[int, np.ndarray], d_h: int):
        self.vectors = vectors
        self.d_h = d_h

    @classmethod
    def load(cls, path: str | Path) -> "PrecomputedEncoder":
        import json

        vectors = {}
        d_h = None
        with open(path, encoding="utf-8") as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                sid = int(rec["sentence_id"])
                arr = np.asarray(rec["vectors"], dtype=np.float64)
                if arr.ndim != 2 or not np.isfinite(arr).all():
                    raise ValueError(f"vectors for sentence {sid} are not a "
                                     f"finite 2-D array (shape {arr.shape})")
                if sid in vectors:
                    raise ValueError(f"duplicate sentence_id {sid}")
                vectors[sid] = arr
                d_h = arr.shape[1]
        if d_h is None:
            raise ValueError(f"no vectors found in {path}")
        return cls(vectors, d_h)

    def encode(self, sentence: ParsedSentence, indicator_verb: int,
               sentence_id: int | None = None) -> Tensor:
        if sentence_id not in self.vectors:
            raise KeyError(f"no precomputed vectors for sentence {sentence_id}")
        arr = self.vectors[sentence_id]
        if arr.shape != (len(sentence.tokens), self.d_h):
            raise ValueError(
                f"vectors for sentence {sentence_id} have shape {arr.shape}, "
                f"expected ({len(sentence.tokens)}, {self.d_h})")
        return ad.constant(arr)
