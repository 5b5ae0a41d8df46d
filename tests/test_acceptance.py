"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from pathlib import Path

import numpy as np
import pytest

from sga.config import PipelineConfig
from sga.conllu import read_conllu
from sga.pipeline import Model
from sga.syntax_graph import build_syntax_graph, path_table
from sga.training import toy_train
from sga.verify import (
    gradcheck_model,
    random_sentence_tree,
    suite_algebra,
    suite_dedup,
    suite_graph,
)
from sga.gradcheck import check_gradient

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(number: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}", flush=True)
    return ok


def test_criterion_1_four_term_identity():
    start = time.perf_counter()
    suite = suite_algebra(seed=0)
    elapsed = time.perf_counter() - start
    check = next(c for c in suite.checks if c.name == "four_term_identity")
    ok = check.passed and elapsed < 5.0
    assert report(
        1,
        "factored score equals the four-term sum within 1e-10 over 1000 draws",
        ok,
        f"max |diff| = {check.measured:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_zero_relation_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    trees = [random_sentence_tree(rng, max_words=8, max_word_len=5) for _ in range(50)]
    config = PipelineConfig.toy(seed=0)
    model = Model.create(config, trees)
    mismatches = 0
    for tree in trees:
        sentence = model.prepare(tree)
        zeroed = model.forward(sentence, zero_relations=True)
        plain = model.forward(sentence, baseline=True)
        if not np.array_equal(zeroed.data, plain.data):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    assert report(
        2,
        "zero relation encodings reproduce the content-only encoder bit for bit "
        "on 50 random sentences",
        ok,
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_3_graph_structure_suite():
    start = time.perf_counter()
    suite = suite_graph(seed=0, trees=100, max_nodes=20)
    elapsed = time.perf_counter() - start
    ok = suite.passed and elapsed < 10.0
    worst = max(c.measured for c in suite.checks)
    assert report(
        3,
        "edge counts, search-vs-ancestor-walk paths, reversal and concatenation "
        "hold exactly on 100 random trees",
        ok,
        f"violations = {worst:.0f}, {elapsed:.2f}s",
    )


def test_criterion_4_dedup_equivalence():
    start = time.perf_counter()
    suite = suite_dedup(seed=0, sentences=50)
    elapsed = time.perf_counter() - start
    check = suite.checks[0]
    ok = check.passed and elapsed < 30.0
    assert report(
        4,
        "deduplicated path encodings scattered back equal the naive per-pair "
        "encodings bit for bit on 50 random sentences",
        ok,
        f"{check.detail}, {elapsed:.2f}s",
    )


def test_criterion_5_end_to_end_gradient_check():
    start = time.perf_counter()
    model, _, loss = gradcheck_model()
    report_gc = check_gradient(loss, model.parameters(), eps=1e-5)
    elapsed = time.perf_counter() - start
    ok = report_gc.max_rel_error <= 1e-5 and elapsed < 120.0
    assert report(
        5,
        "analytic gradients through embeddings, relation GRUs, attention "
        "and FFN match central differences within 1e-5",
        ok,
        f"max rel err = {report_gc.max_rel_error:.3e}, {elapsed:.2f}s",
    )


def test_criterion_6_row_stochastic_attention():
    texts = ["flight.conllu", "minimal.conllu", "dogs.conllu", "toy_corpus.conllu"]
    trees = []
    for name in texts:
        trees.extend(read_conllu((FIXTURES / name).read_text()))
    model = Model.create(PipelineConfig(seed=0), trees)
    worst = 0.0
    maps_checked = 0
    for tree in trees:
        sentence = model.prepare(tree)
        _, maps = model.forward(sentence, collect_attention=True)
        assert len(maps) == model.config.n_blocks * model.config.heads
        for amap in maps:
            maps_checked += 1
            worst = max(worst, float(np.abs(amap.weights.sum(axis=1) - 1.0).max()))
            if np.any(amap.weights < 0) or np.any(amap.weights > 1):
                worst = np.inf
    ok = worst <= 1e-12
    assert report(
        6,
        "attention weight rows sum to one within 1e-12 for every block and head "
        "on every fixture sentence",
        ok,
        f"{maps_checked} maps over {len(trees)} sentences, worst = {worst:.2e}",
    )


def test_criterion_7_toy_overfit():
    start = time.perf_counter()
    trees = read_conllu((FIXTURES / "toy_corpus.conllu").read_text())
    assert len(trees) == 10

    def run(epochs):
        config = PipelineConfig.toy(seed=0)
        model = Model.create(config, trees)
        sentences = [model.prepare(t) for t in trees]
        return toy_train(model, sentences, epochs=epochs, lr=1e-2)

    short_a = run(3)
    short_b = run(3)
    curve = run(200)
    elapsed = time.perf_counter() - start
    ratio = curve[-1] / curve[0]
    ok = short_a == short_b and ratio <= 0.10 and elapsed < 300.0
    assert report(
        7,
        "toy training on the 10 fixture sentences reaches <= 10% of the initial "
        "loss within 200 epochs, deterministically",
        ok,
        f"loss {curve[0]:.4f} -> {curve[-1]:.4f} (ratio {ratio:.4f}), "
        f"deterministic = {short_a == short_b}, {elapsed:.1f}s",
    )


def test_criterion_8_flight_fixture_reproduction():
    (tree,) = read_conllu((FIXTURES / "flight.conllu").read_text())
    graph = build_syntax_graph(tree)
    n = tree.n
    non_self = len(graph.edges) - graph.self_loop_count
    path = path_table(graph).path(1, 7)
    ok = (
        n == 8
        and len(graph.edges) == 2 * (n - 1) + n == 22
        and non_self == 14
        and graph.self_loop_count == 8
        and len(path) == 3
        and tree.form(1) == "I"
        and tree.form(7) == "Denver"
    )
    assert report(
        8,
        "the eight-word fixture yields 2(n-1)+n = 22 directed edges (8 of them "
        "self-loops) and a length-3 path from 'I' to 'Denver'",
        ok,
        f"edges = {len(graph.edges)}, self-loops = {graph.self_loop_count}, "
        f"path = {' '.join(path.key)}",
    )
