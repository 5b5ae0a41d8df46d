"""Runnable verification suites behind the `verify` CLI command.

Each suite returns machine-checkable results (measured error against a
pinned tolerance); a check passes when its error is at most its tolerance,
so NaN fails. The graph suite compares the breadth-first path table
against an independent oracle that walks parent pointers through the lowest
common ancestor instead of searching; the dedup suite compares the batched
relation encoder against each path stepped alone, label by label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Parameter, Tensor, concat_last, mul, sum_all, take
from .config import PipelineConfig
from .conllu import DependencyTree, Edge
from .encoder import (
    AttentionHeadParams,
    baseline_score,
    syntax_score,
    syntax_score_terms,
)
from .gradcheck import check_gradient
from .gru import gru_cell_forward
from .pipeline import Model
from .relation import UNK_KEY
from .syntax_graph import SELF, build_syntax_graph, path_table
from .training import RegressionHead

LABEL_POOL = ("nsubj", "obj", "det", "nmod", "case", "advmod", "amod", "punct")


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# Random structure generators (shared with the test suite)
# ---------------------------------------------------------------------------


def random_tree(rng: np.random.Generator, n: int) -> DependencyTree:
    """Uniform random parent tree over n words with random relation labels."""
    forms = tuple(f"w{i}" for i in range(1, n + 1))
    edges = []
    for dep in range(2, n + 1):
        head = int(rng.integers(1, dep))
        label = LABEL_POOL[int(rng.integers(0, len(LABEL_POOL)))]
        edges.append(Edge(head=head, dependent=dep, label=label))
    return DependencyTree(forms=forms, edges=tuple(edges), root_index=1)


def random_sentence_tree(
    rng: np.random.Generator,
    max_words: int = 5,
    max_word_len: int = 4,
) -> DependencyTree:
    """Random tree whose forms are short lowercase words (for char-level runs)."""
    n = int(rng.integers(2, max_words + 1))
    base = random_tree(rng, n)
    alphabet = "abcdefghij"
    forms = tuple(
        "".join(
            alphabet[int(rng.integers(0, len(alphabet)))]
            for _ in range(int(rng.integers(1, max_word_len + 1)))
        )
        for _ in range(n)
    )
    return DependencyTree(forms=forms, edges=base.edges, root_index=base.root_index)


# ---------------------------------------------------------------------------
# Independent path oracle: parent-pointer walk through the lowest common
# ancestor (no search involved)
# ---------------------------------------------------------------------------


def lca_walk(
    tree: DependencyTree, i: int, j: int
) -> tuple[list[str], list[int]]:
    """Label keys (``L:rev`` going up, ``L:fwd`` going down) and visited
    nodes of the path i -> j, found by climbing parent pointers to the
    lowest common ancestor and descending to the target."""
    if i == j:
        return [SELF], [i]
    parent: dict[int, tuple[int, str]] = {
        e.dependent: (e.head, e.label) for e in tree.edges
    }

    def ancestors(node: int) -> list[int]:
        chain = [node]
        while chain[-1] in parent:
            chain.append(parent[chain[-1]][0])
        return chain

    on_j = set(ancestors(j))
    lca = next(node for node in ancestors(i) if node in on_j)
    labels: list[str] = []
    nodes = [i]
    node = i
    while node != lca:
        head, label = parent[node]
        labels.append(f"{label}:rev")
        node = head
        nodes.append(node)
    down_labels: list[str] = []
    down_nodes: list[int] = []
    node = j
    while node != lca:
        head, label = parent[node]
        down_labels.append(f"{label}:fwd")
        down_nodes.append(node)
        node = head
    labels.extend(reversed(down_labels))
    nodes.extend(reversed(down_nodes))
    return labels, nodes


def lca_walk_path(tree: DependencyTree, i: int, j: int) -> list[str]:
    return lca_walk(tree, i, j)[0]


def flip(key: str) -> str:
    """The label of the same edge walked the other way; ``self`` is its own."""
    base, _, direction = key.rpartition(":")
    return {"fwd": f"{base}:rev", "rev": f"{base}:fwd"}.get(direction, key)


def tree_distance(tree: DependencyTree, i: int, j: int) -> int:
    return 0 if i == j else len(lca_walk_path(tree, i, j))


def lone_path_encoding(labels, table: Parameter, cells, vocab: dict[str, int]) -> Tensor:
    """(1, 2 * d_h) relation encoding of one label sequence, stepped label by
    label at batch size 1 through the composed GRU cells over the label
    table. `cells` are a relation encoder's `gru_fwd` and `gru_bwd`, read
    once by the caller, since each read copies them. It shares neither the
    fused level op nor the path table with the relation encoder, so it is
    the naive side of the dedup check."""
    ids = [vocab.get(label, vocab[UNK_KEY]) for label in labels]
    if not ids:
        raise ValueError("cannot encode an empty path")

    def run(cell, seq):
        state = Tensor(np.zeros((1, *cell.b_z.shape)))
        for i in seq:
            state = gru_cell_forward(cell, state, take(table, [i]))
        return state

    return concat_last([run(cells[0], ids), run(cells[1], ids[::-1])])


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_algebra(seed: int = 0) -> SuiteResult:
    """Score identities: four-term expansion and reduction to content-only."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="algebra")
    d_model, d_head = 8, 4
    worst_identity = 0.0
    worst_reduction = 0.0
    for _ in range(1000):
        head = AttentionHeadParams(
            w_q=Parameter("w_q", rng.standard_normal((d_head, d_model))),
            w_k=Parameter("w_k", rng.standard_normal((d_head, d_model))),
            w_v=Parameter("w_v", rng.standard_normal((d_head, d_model))),
            w_r=Parameter("w_r", rng.standard_normal((2 * d_model, 4))),
        )
        x_i, x_j, r_f, r_b = (rng.standard_normal(d_model) for _ in range(4))
        factored = syntax_score(x_i, x_j, r_f, r_b, head)
        terms = syntax_score_terms(x_i, x_j, r_f, r_b, head)
        worst_identity = max(worst_identity, abs(factored - sum(terms)))
        zero = np.zeros(d_model)
        reduced = syntax_score(x_i, x_j, zero, zero, head)
        worst_reduction = max(
            worst_reduction, abs(reduced - baseline_score(x_i, x_j, head))
        )
    result.checks.append(
        CheckResult(
            name="four_term_identity",
            measured=worst_identity,
            tolerance=1e-10,
            detail="factored score vs sum of the four addressing terms, 1000 draws",
        )
    )
    result.checks.append(
        CheckResult(
            name="zero_bias_reduction",
            measured=worst_reduction,
            tolerance=0.0,
            detail="zero relation biases reduce the score to the content score",
        )
    )
    return result


def suite_graph(seed: int = 0, trees: int = 100, max_nodes: int = 20) -> SuiteResult:
    """Structural properties on random trees: edge counts, oracle paths,
    reversal, and concatenation."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="graph")
    edge_violations = 0
    oracle_mismatches = 0
    reversal_violations = 0
    concat_violations = 0
    length_violations = 0
    for _ in range(trees):
        n = int(rng.integers(1, max_nodes + 1))
        tree = random_tree(rng, n)
        graph = build_syntax_graph(tree)
        if len(graph.edges) != 2 * (n - 1) + n or graph.self_loop_count != n:
            edge_violations += 1
        table = path_table(graph)
        for _ in range(min(30, n * n)):
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(1, n + 1))
            path = table.path(i, j)
            oracle_labels, oracle_nodes = lca_walk(tree, i, j)
            if list(path.key) != oracle_labels:
                oracle_mismatches += 1
            if table.path(j, i).key != tuple(flip(l) for l in reversed(path.key)):
                reversal_violations += 1
            if i != j and len(path) != tree_distance(tree, i, j):
                length_violations += 1
            if i != j and len(path) >= 2:
                # Split at an interior relay node taken from the oracle walk.
                k = oracle_nodes[int(rng.integers(1, len(oracle_nodes) - 1))]
                if table.path(i, k).key + table.path(k, j).key != path.key:
                    concat_violations += 1
    checks = [
        ("edge_count_formula", edge_violations, "directed edges = 2(n-1) + n with n self-loops"),
        ("bfs_matches_lca_oracle", oracle_mismatches, "search path equals parent-walk oracle path"),
        ("path_reversal", reversal_violations, "reverse path is flipped mirror"),
        ("path_concatenation", concat_violations, "path splits at any relay node"),
        ("path_length_is_tree_distance", length_violations, "length equals tree distance"),
    ]
    for name, violations, detail in checks:
        result.checks.append(
            CheckResult(
                name=name,
                measured=float(violations),
                tolerance=0.0,
                detail=detail,
            )
        )
    return result


GRADCHECK_SEED = 2


def gradcheck_model(seed: int = GRADCHECK_SEED):
    """Tiny end-to-end model and loss closure for gradient verification.

    The check runs at a generic parameter point: every parameter (including
    normalization gains) is jittered away from its initialization, and the
    loss is a regression head's squared error against fixed random targets,
    so it runs through every fused op's backward pass. At the pristine
    initialization a unit-gain final normalization makes a summed output
    almost parameter-independent, which would leave nothing but round-off
    to compare. The default seed is frozen so the suite is a
    reproducible verification point.
    """
    config = PipelineConfig(
        d_model=8, d_e=4, d_h=4, n_blocks=1, heads=2, d_ff=16, seed=seed,
        use_positions=True,
    )
    # Four-word chain: relation paths up to length three, five characters.
    tree = DependencyTree(
        forms=("a", "bc", "d", "e"),
        edges=(
            Edge(head=4, dependent=3, label="nsubj"),
            Edge(head=3, dependent=2, label="obj"),
            Edge(head=2, dependent=1, label="nmod"),
        ),
        root_index=4,
    )
    model = Model.create(config, [tree])
    rng = np.random.default_rng(seed + 1000)
    for p in model.parameters():
        p.assign(p.data + rng.uniform(-0.3, 0.3, size=p.data.shape))
    sentence = model.prepare(tree)
    head = RegressionHead.create(config.d_model, 3, rng)
    targets = rng.uniform(-1.0, 1.0, size=(sentence.n_chars, 3))

    def loss() -> Tensor:
        return head.loss(model.forward(sentence), targets)

    return model, sentence, loss


def suite_gradcheck(seed: int = 0) -> SuiteResult:
    """Analytic vs central-difference gradients, from a quadratic sanity
    check up to the full encoder loss."""
    result = SuiteResult(suite="gradcheck")

    rng = np.random.default_rng(seed)
    w = Parameter("w", rng.uniform(0.2, 1.0, size=(3, 3)))
    coeff = Tensor(rng.uniform(0.5, 1.5, size=(3, 3)))
    report = check_gradient(lambda: sum_all(mul(coeff, mul(w, w))), [w], eps=1e-5)
    result.checks.append(
        CheckResult(
            name="quadratic_exact",
            measured=report.max_rel_error,
            tolerance=1e-9,
            detail="central differences are exact for quadratics",
        )
    )

    model, _, loss = gradcheck_model()
    report = check_gradient(loss, model.parameters(), eps=1e-5)
    result.checks.append(
        CheckResult(
            name="end_to_end_encoder",
            measured=report.max_rel_error,
            tolerance=1e-5,
            detail=(
                "loss through embeddings, relation GRUs, attention, FFN and head; "
                f"worst parameter {report.worst().name}"
            ),
        )
    )
    return result


def suite_dedup(seed: int = 0, sentences: int = 50) -> SuiteResult:
    """Deduplicated path encoding scattered back equals the naive per-pair
    encoding bit for bit: each character pair's oracle path, stepped alone."""
    rng = np.random.default_rng(seed)
    result = SuiteResult(suite="dedup")
    mismatches = 0
    pairs_checked = 0
    for _ in range(sentences):
        tree = random_sentence_tree(rng)
        model = Model.create(PipelineConfig.toy(seed=int(rng.integers(0, 2**31))), [tree])
        sentence = model.prepare(tree)
        relations = model.encode_relations(sentence)
        scattered = relations.encodings.data[relations.pair_index]
        words = sentence.char_map.word_of_char
        rel = model.relation
        cells = (rel.gru_fwd, rel.gru_bwd)
        for ci in range(sentence.n_chars):
            for cj in range(sentence.n_chars):
                labels = lca_walk_path(tree, words[ci], words[cj])
                naive = lone_path_encoding(labels, rel.edge_embedding, cells, model.label_vocab)
                pairs_checked += 1
                if not np.array_equal(naive.data[0], scattered[ci, cj]):
                    mismatches += 1
    result.checks.append(
        CheckResult(
            name="dedup_equals_naive",
            measured=float(mismatches),
            tolerance=0.0,
            detail=f"{pairs_checked} character pairs across {sentences} sentences",
        )
    )
    return result


SUITES: dict[str, Callable[[int], SuiteResult]] = {
    "algebra": suite_algebra,
    "graph": suite_graph,
    "gradcheck": suite_gradcheck,
    "dedup": suite_dedup,
}


def run_suites(names: list[str], seed: int = 0) -> list[SuiteResult]:
    return [SUITES[name](seed) for name in names]
