"""Template-generated sentences with consistent parses and gold tuples.

Four templates (intransitive, transitive, transitive + locative PP, and
modal + transitive with a tuple-less auxiliary verb) provide short n-ary
training material for overfit and ablation experiments.
"""

from __future__ import annotations

import numpy as np

from .corpus import ParsedSentence, _build_sentence

NAMES = ["Alice", "Bob", "Carol", "David", "Emma", "Frank"]
TRANS_VERBS = ["likes", "sees", "buys", "finds", "wants"]
INTRANS_VERBS = ["sleeps", "runs", "smiles", "waits"]
NOUNS = ["dog", "cat", "book", "ball", "car"]
PLACES = ["room", "park", "garden", "kitchen"]
MODALS = ["can", "will", "may"]


def _sv(rng) -> dict:
    noun = rng.choice(NOUNS)
    verb = rng.choice(INTRANS_VERBS)
    return {
        "tokens": ["The", noun, verb, "."],
        "const_ptb": f"(S (NP (DT The) (NN {noun})) (VP (VBZ {verb})) (. .))",
        "dep_conllu": [[1, "det"], [2, "nsubj"], [-1, "ROOT"], [2, "punct"]],
        "verbs": [2],
        "tuples": [{"verb": 2, "spans": {"ARG0": [0, 1], "REL": [2, 2]}}],
    }


def _svo(rng) -> dict:
    name = rng.choice(NAMES)
    verb = rng.choice(TRANS_VERBS)
    noun = rng.choice(NOUNS)
    return {
        "tokens": [name, verb, "the", noun, "."],
        "const_ptb": (f"(S (NP (NNP {name})) (VP (VBZ {verb}) "
                      f"(NP (DT the) (NN {noun}))) (. .))"),
        "dep_conllu": [[1, "nsubj"], [-1, "ROOT"], [3, "det"], [1, "dobj"],
                       [1, "punct"]],
        "verbs": [1],
        "tuples": [{"verb": 1, "spans": {"ARG0": [0, 0], "REL": [1, 1],
                                         "ARG1": [2, 3]}}],
    }


def _svo_pp(rng) -> dict:
    name = rng.choice(NAMES)
    verb = rng.choice(TRANS_VERBS)
    noun = rng.choice(NOUNS)
    place = rng.choice(PLACES)
    return {
        "tokens": [name, verb, "the", noun, "in", "the", place, "."],
        "const_ptb": (f"(S (NP (NNP {name})) (VP (VBZ {verb}) "
                      f"(NP (DT the) (NN {noun})) "
                      f"(PP (IN in) (NP (DT the) (NN {place})))) (. .))"),
        "dep_conllu": [[1, "nsubj"], [-1, "ROOT"], [3, "det"], [1, "dobj"],
                       [1, "prep"], [6, "det"], [4, "pobj"], [1, "punct"]],
        "verbs": [1],
        "tuples": [{"verb": 1, "spans": {"ARG0": [0, 0], "REL": [1, 1],
                                         "ARG1": [2, 3], "ARG2": [4, 6]}}],
    }


def _modal(rng) -> dict:
    # the modal counts as a candidate verb but yields no tuple (all-O instance)
    name = rng.choice(NAMES)
    modal = rng.choice(MODALS)
    verb = rng.choice(TRANS_VERBS)
    noun = rng.choice(NOUNS)
    return {
        "tokens": [name, modal, verb, "the", noun, "."],
        "const_ptb": (f"(S (NP (NNP {name})) (VP (MD {modal}) (VP (VB {verb}) "
                      f"(NP (DT the) (NN {noun})))) (. .))"),
        "dep_conllu": [[2, "nsubj"], [2, "aux"], [-1, "ROOT"], [4, "det"],
                       [2, "dobj"], [2, "punct"]],
        "verbs": [1, 2],
        "tuples": [{"verb": 2, "spans": {"ARG0": [0, 0], "REL": [2, 2],
                                         "ARG1": [3, 4]}}],
    }


TEMPLATES = [_sv, _svo, _svo_pp, _modal]


def generate_corpus(n_sentences: int, seed: int = 0) -> list[ParsedSentence]:
    rng = np.random.default_rng(seed)
    return [_build_sentence(TEMPLATES[i % len(TEMPLATES)](rng))
            for i in range(n_sentences)]
