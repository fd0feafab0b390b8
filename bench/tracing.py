"""Spans and counts recorded around calls into synoie's public functions.

The tracer patches module functions and class methods from outside the
package and restores them on exit, so the program under test is unchanged
and untraced runs execute none of this code.  Spans are kept in memory as
``[name, start, end, parent, instance, error, phase]`` and written out as
JSONL when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from synoie import (autodiff, corpus, encoder, evaluation, gcn, losses, model,
                    tagger, training)


def _targets():
    """(owner, attribute, span name, opens an instance) for every traced call.

    A span name may be a function of the call's arguments.  Callers inside
    synoie reach each of these through the module or class attribute patched
    here, never through a name bound at import time.
    """
    return [
        (corpus, "load_corpus", "corpus.load", False),
        (model.SentenceGraphs, "build", "graphs.build", False),
        (encoder.ToyEncoder, "encode", "encoder.encode", False),
        (gcn, "node_label_embed_const", "gcn.label_embed", False),
        (gcn, "node_label_embed_dep", "gcn.label_embed", False),
        (gcn, "gcn_layer", lambda g, *a, **k: f"gcn.layer_{g.view}", False),
        (gcn, "aggregate", "gcn.aggregate", False),
        (tagger, "tag_logits", "tagger.tag_logits", False),
        (tagger, "decode_bio", "tagger.decode", False),
        (losses, "tagging_loss", "losses.ce", False),
        (losses, "loss_r1", "losses.r1", False),
        (losses, "loss_r2", "losses.r2", False),
        (losses, "loss_r3", "losses.r3", False),
        (model.Model, "instance_losses", "model.instance_losses", True),
        (model.Model, "predict", "model.predict", True),
        (autodiff.Tensor, "backward", "autodiff.backward", False),
        (autodiff, "adam_step", "autodiff.adam", False),
        (training, "train", "training.train", False),
        (training, "_exact_f1", "training.dev_eval", False),
        (training, "extract_corpus", "training.extract_corpus", True),
        (training.Checkpoint, "load", "training.checkpoint_load", False),
        (evaluation, "exact_match_score", "evaluation.score", False),
        (evaluation, "lexical_match_score", "evaluation.score", False),
    ]


class Tracer:
    """Context manager: patches the traced calls on entry, restores on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.tape_nodes: list[int] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._next_instance = 0
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name, opens in _targets():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            after = self._count_tape if name == "model.instance_losses" else None
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, opens, after))
            else:
                patched = self._wrap(raw, name, opens, after)
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False

    def _open(self, name: str, opens_instance: bool) -> int:
        parent = self._stack[-1] if self._stack else None
        instance = self.spans[parent][4] if parent is not None else None
        if instance is None and opens_instance:
            instance = self._next_instance
            self._next_instance += 1
        self.spans.append([name, perf_counter(), None, parent, instance, None,
                           self.phase])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, error: str | None = None):
        self.spans[idx][2] = perf_counter()
        self.spans[idx][5] = error
        self._stack.pop()

    def _wrap(self, fn, name, opens_instance, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name(*args, **kwargs) if callable(name) else name,
                               opens_instance)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx, type(exc).__name__)
                raise
            tracer._close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def _count_tape(self, parts: dict):
        """Exact tape size of each instance loss a round records, in its own span."""
        total = parts["total"]
        if total.requires_grad and self.phase == "round":
            idx = self._open("trace.tape_count", False)
            self.tape_nodes.append(len(autodiff.Tape(total).order))
            self._close(idx)

    def summary(self, phases) -> dict[str, dict[str, float]]:
        """Per span name: total and self seconds, calls and failures."""
        child = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0,
                                   "errors": 0})
        for i, (name, start, end, _, _, error, phase) in enumerate(self.spans):
            if phase not in phases:
                continue
            s = out[name]
            s["total"] += end - start
            s["self"] += end - start - child[i]
            s["calls"] += 1
            s["errors"] += error is not None
        return out

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, instance, error, phase in self.spans:
                f.write(json.dumps({
                    "name": name, "start": round(start - t0, 7),
                    "end": round(end - t0, 7), "parent": parent,
                    "instance": instance, "error": error, "phase": phase,
                }) + "\n")
