"""Set-up of one workload: import sga, read and parse the corpus, build the
vocabularies and the model (plus the regression head and Adam when the
workload trains).

Run as a script it times one set-up in a fresh interpreter and prints the
seconds, so that every sample pays for the imports:

    python3 perfbench/ready.py CORPUS TOY TRAIN SEED

Nothing here imports numpy or sga before the clock starts.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TARGET_DIM = 4  # width of the toy regression targets, as in `sga toytrain`


def set_up(corpus: str, toy: bool, train: bool, seed: int):
    """Returns (seconds, trees, model, trainer); trainer is (head, Adam) or None."""
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import numpy as np

    import sga
    from sga import training

    with open(corpus, encoding="utf-8") as fh:
        trees = sga.read_conllu(fh.read())
    config = sga.PipelineConfig.toy(seed=seed) if toy else sga.PipelineConfig(seed=seed)
    model = sga.Model.create(config, trees)
    trainer = None
    if train:
        head = training.RegressionHead.create(
            config.d_model, TARGET_DIM, np.random.default_rng(seed + 1)
        )
        trainer = (head, training.Adam(model.parameters() + head.parameters()))
    return time.perf_counter() - start, trees, model, trainer


if __name__ == "__main__":
    corpus, toy, train, seed = sys.argv[1:]
    print(repr(set_up(corpus, toy == "1", train == "1", int(seed))[0]))
