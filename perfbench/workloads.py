"""Seeded workload inputs: CoNLL-U corpora generated from a seed.

Each workload fixes the make-up of its sentence pool -- how many words
each sentence has and how many characters those words hold in total --
and draws everything else from the seed: the word lengths within that
total, the letters, the tree shape and the edge labels. Fixing the make-up
keeps the amount of work in a pool nearly the same for every seed, so the
spread between seeds stays small; drawing the rest keeps the inputs
different from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LABELS = (
    "nsubj", "obj", "iobj", "det", "amod", "advmod", "nmod", "obl",
    "case", "mark", "cc", "conj", "aux", "cop", "compound", "nummod",
)
LETTERS = "abcdefghijklmnopqrstuvwxyz"
TREE_CANDIDATES = 15


@dataclass(frozen=True)
class Workload:
    name: str
    toy: bool  # toy dimensions (PipelineConfig.toy) or the defaults
    train: bool  # loss, backward and Adam per sentence instead of inference
    shapes: tuple[tuple[int, int], ...]  # (words, characters) per pool sentence
    word_len: tuple[int, int]  # shortest and longest word


def _schedule(words: range, chars_per_word: float, repeat: int) -> tuple:
    return tuple((w, round(w * chars_per_word)) for w in words) * repeat


# Each pool has an odd number of sentence sizes, each repeated equally, so
# that the median operation falls inside the middle size and not on the
# edge between two: there sentence_ms_p50 would jump between sizes.
WORKLOADS = {
    w.name: w
    for w in (
        # Many short words: hundreds of distinct relation paths per sentence,
        # so the per-path relation GRU sets the time.
        Workload(
            name="encode-many-words",
            toy=True,
            train=False,
            shapes=_schedule(range(12, 21, 2), 2.5, 3),
            word_len=(1, 4),
        ),
        # A few long words: about a dozen paths, so the dense n x n x d_model
        # bias grids of the encoder set the time and the peak memory. Run by
        # hand only: its times swing with the machine's memory traffic (see
        # README.md), so BENCHMARK.json does not list it.
        Workload(
            name="encode-long-words",
            toy=False,
            train=False,
            shapes=((3, 26), (3, 32), (4, 36), (4, 42), (5, 46), (5, 52), (6, 56)),
            word_len=(8, 16),
        ),
        # Forward, backward and Adam: the tape is written and read, so work
        # moved into backward, or a dropped tape, shows.
        Workload(
            name="toytrain",
            toy=True,
            train=True,
            shapes=_schedule(range(3, 8), 3.5, 5),
            word_len=(1, 6),
        ),
    )
}


def _word_lengths(rng: random.Random, words: int, chars: int, lo: int, hi: int) -> list[int]:
    """Split `chars` into `words` lengths, each within [lo, hi]."""
    if not words * lo <= chars <= words * hi:
        raise ValueError(f"cannot split {chars} characters into {words} words")
    lengths = [lo] * words
    for _ in range(chars - words * lo):
        lengths[rng.choice([i for i, n in enumerate(lengths) if n < hi])] += 1
    return lengths


def _random_tree(rng: random.Random, words: int) -> dict[int, int]:
    """Random recursive tree: visit the words in a random order; the first
    is the root and every later word hangs off a word visited before it."""
    order = list(range(1, words + 1))
    rng.shuffle(order)
    heads = {order[0]: 0}
    for k, word in enumerate(order[1:], start=1):
        heads[word] = order[rng.randrange(k)]
    return heads


def relation_paths(heads: dict[int, int], labels: dict[int, str]) -> dict:
    """The directed label sequence of every ordered word pair, found by
    climbing from the first word to the lowest common ancestor and
    descending to the second: ``L:rev`` up an edge, ``L:fwd`` down one,
    ``self`` for a word and itself."""
    chains = {}
    for word in heads:
        chain = [word]
        while heads[chain[-1]]:
            chain.append(heads[chain[-1]])
        chains[word] = chain
    paths = {}
    for i in heads:
        for j in heads:
            if i == j:
                paths[i, j] = ("self",)
                continue
            on_j = chains[j]
            lca = next(node for node in chains[i] if node in on_j)
            up = chains[i][: chains[i].index(lca)]
            down = on_j[: on_j.index(lca)]
            paths[i, j] = tuple(f"{labels[w]}:rev" for w in up) + tuple(
                f"{labels[w]}:fwd" for w in reversed(down)
            )
    return paths


def _tree(rng: random.Random, words: int) -> tuple[dict[int, int], dict[int, str]]:
    """Of TREE_CANDIDATES labelled random trees, the one whose distinct
    relation paths hold the median number of labels. That number is the
    count of GRU steps a sentence costs, so taking the median keeps the
    relation work of a pool close to the same for every seed."""

    def gru_steps(candidate):
        return sum(len(path) for path in set(relation_paths(*candidate).values()))

    candidates = []
    for _ in range(TREE_CANDIDATES):
        heads = _random_tree(rng, words)
        labels = {w: "root" if h == 0 else rng.choice(LABELS) for w, h in heads.items()}
        candidates.append((heads, labels))
    candidates.sort(key=gru_steps)
    return candidates[TREE_CANDIDATES // 2]


def _sentence(rng: random.Random, words: int, chars: int, word_len: tuple[int, int]) -> str:
    lengths = _word_lengths(rng, words, chars, *word_len)
    forms = ["".join(rng.choice(LETTERS) for _ in range(n)) for n in lengths]
    heads, labels = _tree(rng, words)
    lines = [
        f"{i}\t{form}\t_\t_\t_\t_\t{heads[i]}\t{labels[i]}\t_\t_"
        for i, form in enumerate(forms, start=1)
    ]
    return "\n".join(lines) + "\n"


def read_back(text: str) -> list[tuple[dict[int, int], dict[int, str], list[str]]]:
    """(heads, labels, forms) of every sentence of `corpus_text`, taken from
    its ID, FORM, HEAD and DEPREL columns without the program's reader."""
    parses = []
    for block in text.strip().split("\n\n"):
        rows = [line.split("\t") for line in block.splitlines()]
        parses.append((
            {int(r[0]): int(r[6]) for r in rows},
            {int(r[0]): r[7] for r in rows},
            [r[1] for r in rows],
        ))
    return parses


def corpus_text(workload: Workload, seed: int) -> str:
    """The workload's pool as CoNLL-U; the same seed gives the same text."""
    rng = random.Random(f"{workload.name}/{seed}")
    return "\n".join(
        _sentence(rng, words, chars, workload.word_len)
        for words, chars in workload.shapes
    )
