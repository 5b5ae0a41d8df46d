"""Command-line pipeline: graph export, relation/attention dumps,
verification suites, shortest-path dumps, and toy training.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
Every command is deterministic under a fixed seed: the ``--seed`` flag, else
the ``SGA_SEED`` environment variable, else the config file's ``seed``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .autodiff import Parameter
from .config import PipelineConfig, load_config, resolve_seed
from .conllu import read_conllu
from .errors import NumericError, read_utf8
from .pipeline import Model
from .serialize import load_into, save_parameters
from .syntax_graph import (
    build_syntax_graph,
    distinct_paths,
    graph_to_dot,
    graph_to_json,
    path_table,
)
from .training import toy_train, write_loss_curve
from .verify import SUITES, run_suites

# Every parse, structure, config, shape, vocabulary and coverage error is a
# ValueError subclass.
USAGE_ERRORS = (ValueError, NumericError, OSError)


def _read_trees(path: str):
    trees = read_conllu(read_utf8(path))
    if not trees:
        raise ValueError(f"{path}: no sentences found")
    return trees


def _prepared(model: Model, path: str, trees):
    """Prepare each tree; an error names the file and sentence K (from 1)."""
    for k, tree in enumerate(trees, start=1):
        try:
            yield model.prepare(tree)
        except ValueError as exc:
            raise ValueError(f"{path}: sentence {k}: {exc}") from None


def _config_from_args(args) -> PipelineConfig:
    """Flags over the config file (or the toy dims) over the defaults. The
    seed comes from --seed, then SGA_SEED, then the file, then 0."""
    overrides = {}
    for name in ("d_model", "d_e", "d_h", "n_blocks", "heads", "d_ff", "max_chars"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.no_positions:
        overrides["use_positions"] = False
    seed = resolve_seed(args.seed, fallback=None)
    if seed is not None:
        overrides["seed"] = seed
    if args.config:
        return load_config(args.config, **overrides)
    if args.toy:
        return PipelineConfig.toy(**overrides)
    return PipelineConfig(**overrides)


def _add_config_flags(parser):
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="flat key=value config file")
    source.add_argument("--toy", action="store_true", help="use small toy dimensions")
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed (falls back to SGA_SEED, then the config file, then 0)")
    parser.add_argument("--no-positions", action="store_true",
                        help="disable the sinusoidal position signal")
    for name in ("d-model", "d-e", "d-h", "n-blocks", "heads", "d-ff", "max-chars"):
        parser.add_argument(f"--{name}", type=int, default=None,
                            dest=name.replace("-", "_"))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_graph(args) -> int:
    trees = _read_trees(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    for idx, tree in enumerate(trees):
        graph = build_syntax_graph(tree)
        if args.format in ("dot", "both"):
            (out_dir / f"{stem}_s{idx:04d}.dot").write_text(
                graph_to_dot(graph, tree), encoding="utf-8"
            )
        if args.format in ("json", "both"):
            (out_dir / f"{stem}_s{idx:04d}.json").write_text(
                graph_to_json(graph, tree), encoding="utf-8"
            )
    print(f"wrote {len(trees)} graph file set(s) to {out_dir}")
    return 0


def cmd_paths(args) -> int:
    trees = _read_trees(args.input)
    lines = ["sentence\tfrom\tto\tfrom_form\tto_form\tpath"]
    for idx, tree in enumerate(trees):
        table = path_table(build_syntax_graph(tree))
        keys = [" ".join(path.key) for path in table.paths()]
        for i in range(1, tree.n + 1):
            for j in range(1, tree.n + 1):
                lines.append(
                    f"{idx}\t{i}\t{j}\t{tree.form(i)}\t{tree.form(j)}\t"
                    + keys[table.word_pair[i - 1, j - 1]]
                )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _write_attention_csv(path, chars, matrix) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([""] + list(chars))
        for label, row in zip(chars, matrix):
            writer.writerow([label] + [repr(float(v)) for v in row])


def cmd_encode(args) -> int:
    if not args.params and not args.random_init:
        raise ValueError("encode needs --params FILE or --random-init")
    config = _config_from_args(args)
    trees = _read_trees(args.input)
    model = Model.create(config, trees)
    if args.params:
        load_into(model.parameters(), args.params)
    # Every sentence is prepared before anything is written, so a bad one
    # leaves no partial output directory.
    sentences = list(_prepared(model, args.input, trees))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    embeddings = []
    for idx, sentence in enumerate(sentences):
        output, maps = model.forward(
            sentence,
            collect_attention=True,
            zero_relations=args.zero_relations,
            baseline=args.baseline,
        )
        for amap in maps:
            name = f"attn_s{idx:04d}_b{amap.block}_h{amap.head}.csv"
            _write_attention_csv(out_dir / name, sentence.char_map.chars, amap.weights)
            if args.dump_scores:
                name = f"scores_s{idx:04d}_b{amap.block}_h{amap.head}.csv"
                _write_attention_csv(out_dir / name, sentence.char_map.chars, amap.scores)
        # The relation dump is skipped in the two reference modes so that
        # --zero-relations and --baseline write byte-identical directories.
        if not args.baseline and not args.zero_relations:
            unique, table = distinct_paths(sentence.char_map)
            payload = {
                "n": sentence.n_chars,
                "paths": [list(path.key) for path in unique],
                "pair_index": table.tolist(),
                "chars": list(sentence.char_map.chars),
            }
            (out_dir / f"relations_s{idx:04d}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        embeddings.append(Parameter(f"sentence{idx:04d}", output.data))
    save_parameters(out_dir / "embeddings.sga", embeddings)
    print(f"encoded {len(trees)} sentence(s) into {out_dir}")
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=resolve_seed(args.seed))
    report = {
        "passed": all(r.passed for r in results),
        "suites": [r.to_dict() for r in results],
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0 if report["passed"] else 1


def cmd_toytrain(args) -> int:
    config = _config_from_args(args)
    trees = _read_trees(args.input)
    if len(trees) > 100:
        raise ValueError(f"toy training expects at most 100 sentences, got {len(trees)}")
    model = Model.create(config, trees)
    sentences = list(_prepared(model, args.input, trees))
    curve = toy_train(
        model,
        sentences,
        epochs=args.epochs,
        lr=args.lr,
        warmup_steps=args.warmup,
    )
    write_loss_curve(args.out, curve)
    final, initial = curve[-1], curve[0]
    print(
        f"epochs={args.epochs} initial={initial:.6f} final={final:.6f} "
        f"ratio={final / initial if initial else float('nan'):.4f} -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sga",
        description=(
            "Syntax-graph attention pipeline: turn dependency parses into "
            "relation-biased character encoders, and verify the algebra."
        ),
    )
    parser.add_argument("--version", action="version", version=f"sga {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="export syntax graphs as DOT/JSON")
    p.add_argument("input", help="CoNLL-U file")
    p.add_argument("--format", choices=("dot", "json", "both"), default="both")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("paths", help="dump word-pair shortest relation paths as TSV")
    p.add_argument("input", help="CoNLL-U file")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("encode", help="run the encoder, dump attention and embeddings")
    p.add_argument("input", help="CoNLL-U file")
    p.add_argument("--params", default=None, help="parameter file (SGA1 binary)")
    p.add_argument("--random-init", action="store_true",
                   help="draw fresh parameters from the seed")
    p.add_argument("--out-dir", default="out")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--zero-relations", action="store_true",
                      help="zero all relation encodings (keeps the relation machinery)")
    mode.add_argument("--baseline", action="store_true",
                      help="content-only attention, no relation machinery")
    p.add_argument("--dump-scores", action="store_true",
                   help="also dump raw score matrices")
    _add_config_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("verify", help="run a verification suite, report JSON")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("toytrain", help="overfit a toy objective, write a loss curve")
    p.add_argument("input", help="CoNLL-U corpus (at most 100 sentences)")
    p.add_argument("--epochs", type=int, default=200)
    rate = p.add_mutually_exclusive_group()
    rate.add_argument("--lr", type=float, default=1e-2,
                      help="constant Adam step size (default 0.01); excludes --warmup")
    rate.add_argument("--warmup", type=int, default=None,
                      help="inverse-sqrt schedule with this many warmup steps; excludes --lr")
    p.add_argument("--out", default="loss.csv")
    _add_config_flags(p)
    p.set_defaults(func=cmd_toytrain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"sga {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
