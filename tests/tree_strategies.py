"""Random bracketed constituency trees for property tests, their parents, and
one flat sentence of given words.

A generated tree has up to 12 words, up to 4 children per phrase, and above
any node a unary chain of up to 50 phrase tags.  Words are w0, w1, ... left
to right, so a written-back tree can be compared with the text it came from.
A drawn tree may be one bare preterminal (``root_is_preterminal``).
"""

from hypothesis import strategies as st

from synoie import corpus as c

PHRASE_TAGS = ["S", "NP", "VP", "PP", "SBAR"]
POS_TAGS = ["NN", "VBZ", "DT", "."]

_chain = st.lists(st.sampled_from(PHRASE_TAGS), max_size=50)
_preterminal = st.tuples(_chain, st.sampled_from(POS_TAGS), st.just(()))


def _phrase(kids):
    return st.tuples(_chain, st.sampled_from(PHRASE_TAGS),
                     st.lists(kids, min_size=1, max_size=4).map(tuple))


def _render(node, words: list[str]) -> str:
    chain, tag, kids = node
    if kids:
        core = " ".join(_render(k, words) for k in kids)
    else:
        core = f"w{len(words)}"
        words.append(core)
    text = f"({tag} {core})"
    for outer in reversed(chain):
        text = f"({outer} {text})"
    return text


bracketed_trees = st.recursive(_preterminal, _phrase, max_leaves=12).map(
    lambda node: _render(node, []))


def root_is_preterminal(text: str) -> bool:
    """True for a tree that is one bare preterminal, like ``(NN w0)``, which
    the corpus rejects: its word would sit under no phrase."""
    return text.count("(") == 1


def parents(tree) -> dict[int, int]:
    """Child node id -> parent node id; the root has no entry."""
    return {ch: nid for nid, node in enumerate(tree.nodes) for ch in node.children}


def flat_sentence(words: list[str]):
    """A sentence of ``words`` under one S node, each word a verb candidate."""
    return c._build_sentence(
        {"tokens": words,
         "const_ptb": "(S " + " ".join(f"(NN {w})" for w in words) + ")",
         "dep_conllu": [[-1, "ROOT"]] + [[0, "dep"]] * (len(words) - 1),
         "verbs": list(range(len(words)))}, 0, 5)
