"""Benchmark for sga: seeded workloads driven through the public library calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's corpus is generated from the seed (see workloads.py),
written as CoNLL-U, parsed with `read_conllu`, and a `Model` is built over
it. The timed phase then runs whole rounds over the pool, one sentence
operation after another in this one process, until the operations have
taken `--seconds`: `Model.prepare` plus `Model.forward` for the encode
workloads, one loss, backward and Adam step for `toytrain`. Correctness checks run after
the timed phase. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A line of run details
goes to standard error.
"""

import os
import sys

# Fixed before numpy loads, here and in every set-up sample this starts.
# One thread: on a shared two-core machine a second BLAS thread made the
# default-dimension encoder no faster, and spinning threads add noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import ready  # noqa: E402
from workloads import WORKLOADS, corpus_text, read_back  # noqa: E402

SETUP_SAMPLES = 9  # fresh-interpreter set-ups per run; setup_s is their median
CHECKED_SENTENCES = 2  # pool sentences that get the encoder-level checks
SAMPLED_ROWS = 8  # relation encoding rows recomputed per checked sentence
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample(corpus, workload, seed) -> float:
    """One set-up timed in a fresh interpreter, imports included."""
    done = subprocess.run(
        [sys.executable, ready.__file__, corpus, str(int(workload.toy)),
         str(int(workload.train)), str(seed)],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tape_nodes(root) -> int:
    """Tensors reachable from `root` through the recorded parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer, sga) -> None:
    """Wrap each layer's public calls at the names their callers look up."""
    from sga import autodiff, pipeline, relation, training

    def on_prepare(t, args, sentence):
        t.count("word_pairs", sentence.tree.n ** 2)

    def on_distinct(t, args, result):
        unique, table = result
        t.count("distinct_paths", len(unique))
        t.count("pairs_per_path", table.size / len(unique))
        t.count("longest_path", max(len(p) for p in unique))
        t.count("gru_steps", 2 * sum(len(p) for p in unique))

    def on_encoder(t, args, result):
        n, stack = len(args[0]), args[2]
        heads = len(stack.blocks[0].heads) if stack.blocks else 0
        # Forward and backward bias grids, (n, n, d_model) float64 each,
        # per head and block, all held on the tape.
        t.count("bias_grid_mb", 2 * n * n * stack.d_model * 8 * heads * len(stack.blocks) / 2**20)

    tracer.wrap(sga, "read_conllu", "read_conllu")
    tracer.wrap(sga.Model, "create", "Model.create")
    tracer.wrap(sga.Model, "prepare", "Model.prepare", on_prepare)
    tracer.wrap(relation, "distinct_paths", "distinct_paths", on_distinct)
    tracer.wrap(sga.Model, "encode_relations", "Model.encode_relations")
    tracer.wrap(pipeline, "encoder_forward", "encoder_forward", on_encoder)
    tracer.wrap(autodiff, "backward", "backward")
    tracer.wrap(training, "sentence_loss", "sentence_loss")
    tracer.wrap(training.Adam, "step", "Adam.step")


def layer_metrics(tracer, overhead_pct: float) -> dict:
    def per_call_ms(name, self_time=False):
        calls = tracer.calls(name)
        if not calls:
            return 0.0
        total = tracer.self_seconds(name) if self_time else tracer.total_seconds(name)
        return 1000.0 * total / calls

    def mean(name):
        values = tracer.counts.get(name)
        return statistics.fmean(values) if values else 0.0

    values = {
        "conllu.read_ms": (per_call_ms("read_conllu"), "ms"),
        "pipeline.create_ms": (per_call_ms("Model.create"), "ms"),
        "syntax_graph.prepare_ms": (per_call_ms("Model.prepare"), "ms"),
        "syntax_graph.distinct_paths_ms": (per_call_ms("distinct_paths"), "ms"),
        "syntax_graph.word_pairs": (mean("word_pairs"), "count"),
        "relation.encode_ms": (per_call_ms("Model.encode_relations", self_time=True), "ms"),
        "relation.distinct_paths": (mean("distinct_paths"), "count"),
        "relation.pairs_per_path": (mean("pairs_per_path"), "count"),
        "relation.longest_path": (max(tracer.counts.get("longest_path", [0])), "count"),
        "relation.gru_steps": (mean("gru_steps"), "count"),
        "encoder.forward_ms": (per_call_ms("encoder_forward"), "ms"),
        "encoder.bias_grid_mb": (max(tracer.counts.get("bias_grid_mb", [0.0])), "MB"),
        "autodiff.tape_nodes": (mean("tape_nodes"), "count"),
        "autodiff.backward_ms": (per_call_ms("backward"), "ms"),
        "training.loss_ms": (per_call_ms("sentence_loss", self_time=True), "ms"),
        "training.adam_step_ms": (per_call_ms("Adam.step"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


class Rounds:
    """Whole rounds over the pool, one operation at a time, until the
    operations have taken a time budget. Every operation on a pool sentence
    is one attempt."""

    def __init__(self, op, size: int):
        self.op, self.size = op, size
        self.times: list[float] = []
        self.chars = 0
        self.attempts = [0] * size
        self.errors: dict[int, str] = {}

    def run(self, seconds: float, after=None, between=None) -> list[float]:
        """Returns the times of this call's operations. `after` sees each
        output once its time is taken; `between` runs after each round but
        the last with the share of the budget spent, outside the timing."""
        times = []
        while True:
            done = len(times)
            for k in range(self.size):
                self.attempts[k] += 1
                began = perf_counter()
                try:
                    chars, out = self.op(k)
                except Exception as exc:  # one failed operation; the run goes on
                    self.errors.setdefault(k, f"{type(exc).__name__}: {exc}")
                    continue
                times.append(perf_counter() - began)
                self.chars += chars
                if after is not None:
                    after(out)
                del out
            spent = sum(times)
            if spent >= seconds or len(times) == done:  # budget spent, or all failed
                break
            if between is not None:
                between(spent / seconds)
        self.times.extend(times)
        return times


def run(workload, corpus: str, parses, args) -> tuple[dict, dict]:
    tracer = None
    if args.trace:
        if ready.SRC not in sys.path:
            sys.path.insert(0, ready.SRC)
        import sga
        from tracer import Tracer

        tracer = Tracer()
        install(tracer, sga)
    _, trees, model, trainer = ready.set_up(corpus, workload.toy, workload.train, args.seed)

    import numpy as np
    from sga import autodiff, training
    from sga.syntax_graph import distinct_paths

    import checks

    if workload.train:
        head, optimizer = trainer
        sentences = [model.prepare(tree) for tree in trees]
        targets = [training.pseudo_targets(s, ready.TARGET_DIM) for s in sentences]
        losses = []

        def pool_loss():
            return statistics.fmean(
                training.sentence_loss(model, head, s, t).item()
                for s, t in zip(sentences, targets)
            )

        def op(k):
            optimizer.zero_grad()
            loss = training.sentence_loss(model, head, sentences[k], targets[k])
            autodiff.backward(loss)
            optimizer.step()
            losses.append(loss.item())
            return sentences[k].n_chars, loss
    else:

        def op(k):
            sentence = model.prepare(trees[k])
            return sentence.n_chars, model.forward(sentence)

    if tracer is not None:
        tracer.remove()
    if workload.train:
        initial_loss = pool_loss()  # also warms up the forward pass
    else:
        op(0)  # warm-up, not counted

    rounds = Rounds(op, len(trees))
    samples = []

    def sample_setup(share):
        # Set-up samples are spread over the timed phase, so that they meet
        # the same changes in machine speed as the operations do.
        while len(samples) < 1 + int(share * (SETUP_SAMPLES - 1)):
            samples.append(setup_sample(corpus, workload, args.seed))

    if tracer is None:
        sample_setup(0.0)
        rounds.run(args.seconds, between=sample_setup)
        sample_setup(1.0)
    else:
        plain = rounds.run(args.seconds / 2)
        install(tracer, sga)
        traced = rounds.run(
            args.seconds / 2, after=lambda out: tracer.count("tape_nodes", tape_nodes(out))
        )
        tracer.remove()
        overhead_pct = 100.0 * (statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
    if not rounds.times:
        raise RuntimeError(f"every operation failed: {rounds.errors}")

    # Correctness, outside the timed phase.
    problems = dict(rounds.errors)
    rng = np.random.default_rng(args.seed)
    for k, tree in enumerate(trees):
        if k in problems:
            continue
        try:
            sentence = model.prepare(tree)
            unique, table = distinct_paths(sentence.char_map)
            found = checks.check_paths(parses[k], unique, table)
            if found is None and k < CHECKED_SENTENCES:
                relations = model.encode_relations(sentence)
                rows = rng.choice(len(relations.paths), min(SAMPLED_ROWS, len(relations.paths)), replace=False)
                _, maps = model.forward(sentence, collect_attention=True)
                found = (
                    checks.check_encodings(model, relations, rows)
                    or checks.check_scores(model, sentence, relations, maps)
                    or checks.check_rows(maps)
                    or (checks.check_reduction(model, sentence) if k == 0 else None)
                )
        except Exception as exc:  # a check that cannot run is a failed check
            found = f"{type(exc).__name__}: {exc}"
        if found is not None:
            problems[k] = found
    run_ok = True
    if workload.train:
        found = checks.check_training(initial_loss, pool_loss(), losses)
        if found is not None:
            problems["training"] = found
            run_ok = False

    failed = sum(rounds.attempts[k] for k in problems if isinstance(k, int))
    result = {
        "correct": run_ok and failed == 0,
        "attempted": sum(rounds.attempts),
        "failed": failed,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "chars_per_s": (rounds.chars / sum(rounds.times), "1/s"),
            "sentence_ms_p50": (1000.0 * statistics.median(rounds.times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        details = {"setup_samples": samples}
    else:
        result["metrics"] = layer_metrics(tracer, overhead_pct)
        path = os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
        details = {"trace_file": os.path.relpath(path)}
    details.update(
        workload=workload.name,
        seed=args.seed,
        operations=len(rounds.times),
        rounds=min(rounds.attempts),
        problems={str(k): v for k, v in problems.items()},
        **environment(np),
    )
    return result, details


def environment(np) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ready.SRC, "sga")):
        print(f"run.py: no sga sources at {ready.SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    corpus = os.path.join(OUT, f"corpus-{workload.name}-{args.seed}-{os.getpid()}.conllu")
    text = corpus_text(workload, args.seed)
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        result, details = run(workload, corpus, read_back(text), args)
    finally:
        os.remove(corpus)
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
