#!/usr/bin/env python3
"""Overfitting experiment: how fast does the toy objective collapse at
different learning-rate settings, and does the fixed rate beat the warmup
schedule at desk scale? Prints a small table and writes the curves."""

import argparse
from pathlib import Path

from sga.config import PipelineConfig
from sga.conllu import read_conllu
from sga.errors import read_utf8
from sga.pipeline import Model
from sga.training import toy_train, write_loss_curve

ROOT = Path(__file__).resolve().parent.parent


def run(corpus, epochs, lr, warmup, seed):
    trees = read_conllu(read_utf8(corpus))
    model = Model.create(PipelineConfig.toy(seed=seed), trees)
    sentences = [model.prepare(t) for t in trees]
    return toy_train(model, sentences, epochs=epochs, lr=lr, warmup_steps=warmup)


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", default=str(ROOT / "fixtures" / "toy_corpus.conllu"))
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=str(ROOT / "demo_out"))
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    settings = [
        ("lr=3e-3", dict(lr=3e-3, warmup=None)),
        ("lr=1e-2", dict(lr=1e-2, warmup=None)),
        ("warmup=100", dict(lr=1e-2, warmup=100)),  # schedule overrides lr
    ]
    print(f"{'setting':<12} {'initial':>10} {'final':>10} {'ratio':>8}")
    for name, kwargs in settings:
        curve = run(args.corpus, args.epochs, seed=args.seed, **kwargs)
        write_loss_curve(out_dir / f"loss_{name.replace('=', '_')}.csv", curve)
        print(f"{name:<12} {curve[0]:>10.4f} {curve[-1]:>10.4f} "
              f"{curve[-1] / curve[0]:>8.4f}")
