#!/usr/bin/env python3
"""Time and peak memory of one sentence per size, each size in a fresh process.

The sentence of size W is a random recursive tree of W one-character words:
random.Random(W) draws its shape with the benchmark pools' tree generator
(perfbench/workloads.py) and each edge's label from their 16 labels. So
n = W characters and U, the number of distinct relation paths, grows as
about W². Each size builds the model and first runs one untimed warm-up
step on the tree of min(W, 4) words, so that one-time set-up in the process
is not timed. Each size then prints one JSON line:
- n, W, U and L (the longest path) of the size-W tree;
- `prepare_s`, the seconds of `model.prepare` on the size-W tree (its
  character map and path table), to four decimals;
- `rss_before_mb`, ru_maxrss in MB after the warm-up and that prepare;
- `forward_s`, the seconds of one forward on the size-W tree (relation stage
  included), and with --train `backward_s`, the seconds of its backward;
- `rss_after_mb`, ru_maxrss in MB after that step;
- with --train, from a second recorded step run after ru_maxrss is read,
  what tracemalloc traces above the heap before its forward, in MiB:
  `kept_mb`, held once the forward returns, and `backward_peak_mb`, the
  peak during backward.
`max_chars` is raised to fit when a size needs it, so sizes above the
default bound also run.

    python3 scripts/memory_sweep.py --words 40 80 160 200
    python3 scripts/memory_sweep.py --toy --train --words 20 40
"""

import argparse
import json
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from sga.autodiff import backward, recording, sum_all
from sga.config import PipelineConfig
from sga.conllu import DependencyTree, Edge
from sga.pipeline import Model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import LABELS, LETTERS, _random_tree  # noqa: E402


def random_tree(words: int) -> DependencyTree:
    rng = random.Random(words)
    heads = _random_tree(rng, words)
    edges = tuple(Edge(h, w, rng.choice(LABELS)) for w, h in heads.items() if h)
    forms = tuple(LETTERS[(w - 1) % len(LETTERS)] for w in range(1, words + 1))
    root = next(w for w, h in heads.items() if h == 0)
    return DependencyTree(forms, edges, root)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_step(model: Model, sentence) -> dict:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with recording():
            loss = sum_all(model.forward(sentence))
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return {"kept_mb": round(kept / 2**20, 1), "backward_peak_mb": round(peak / 2**20, 1)}


def timed_step(model: Model, sentence, train: bool) -> dict:
    began = time.perf_counter()
    if not train:
        model.forward(sentence)
        return {"forward_s": round(time.perf_counter() - began, 3)}
    with recording():
        loss = sum_all(model.forward(sentence))
        forward_s = round(time.perf_counter() - began, 3)
        began = time.perf_counter()
        backward(loss)
    return {"forward_s": forward_s, "backward_s": round(time.perf_counter() - began, 3)}


def measure(words: int, toy: bool, train: bool) -> dict:
    tree = random_tree(words)
    dims = {"seed": 0, "max_chars": max(400, 2 * words)}
    config = PipelineConfig.toy(**dims) if toy else PipelineConfig(**dims)
    model = Model.create(config, [tree])
    # The warm-up tree's words are the first of the tree's own words.
    timed_step(model, model.prepare(random_tree(min(words, 4))), train)
    began = time.perf_counter()
    sentence = model.prepare(tree)
    prepare_s = round(time.perf_counter() - began, 4)
    table = sentence.char_map.table
    row = {
        "n": sentence.n_chars, "W": words, "U": len(table),
        "L": int(table.length.max()), "prepare_s": prepare_s,
        "rss_before_mb": round(max_rss_mb(), 1),
    }
    row.update(timed_step(model, sentence, train))
    row["rss_after_mb"] = round(max_rss_mb(), 1)
    if train:
        row.update(traced_step(model, sentence))
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--words", type=int, nargs="+", default=[40, 80, 160, 200])
    parser.add_argument("--toy", action="store_true", help="toy dimensions")
    parser.add_argument("--train", action="store_true", help="forward and backward")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(args.words[0], args.toy, args.train)))
        return 0
    flags = [f for f, on in (("--toy", args.toy), ("--train", args.train)) if on]
    for words in args.words:
        run = subprocess.run(
            [sys.executable, __file__, "--one", "--words", str(words), *flags],
            stdout=subprocess.PIPE, text=True,
        )
        if run.returncode != 0:
            return run.returncode
        print(run.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
