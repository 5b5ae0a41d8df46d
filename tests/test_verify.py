"""The runnable verification suites themselves."""

import numpy as np

from sga.conllu import DependencyTree, Edge
from sga.verify import (
    lca_walk,
    random_sentence_tree,
    random_tree,
    run_suites,
    suite_algebra,
    suite_graph,
)


def test_lca_walk_on_hand_tree():
    #      2(root)
    #     /   \
    #    1     5
    #         / \
    #        3   4
    tree = DependencyTree(
        ("a", "b", "c", "d", "e"),
        (
            Edge(2, 1, "nsubj"),
            Edge(2, 5, "obj"),
            Edge(5, 3, "det"),
            Edge(5, 4, "nmod"),
        ),
        2,
    )
    labels, nodes = lca_walk(tree, 3, 4)
    assert labels == ["det:rev", "nmod:fwd"]
    assert nodes == [3, 5, 4]
    labels, nodes = lca_walk(tree, 1, 3)
    assert labels == ["nsubj:rev", "obj:fwd", "det:fwd"]
    assert nodes == [1, 2, 5, 3]
    labels, nodes = lca_walk(tree, 4, 4)
    assert labels == ["self"]


def test_random_generators_are_reproducible():
    a = random_tree(np.random.default_rng(5), 9)
    b = random_tree(np.random.default_rng(5), 9)
    assert a == b
    s1 = random_sentence_tree(np.random.default_rng(6))
    s2 = random_sentence_tree(np.random.default_rng(6))
    assert s1 == s2


def test_fast_suites_pass_and_serialize():
    results = run_suites(["algebra", "graph", "dedup"], seed=0)
    assert all(r.passed for r in results)
    for result in results:
        payload = result.to_dict()
        assert payload["suite"] == result.suite
        assert all(set(c) >= {"name", "passed", "measured", "tolerance"}
                   for c in payload["checks"])


def test_algebra_suite_measures_tiny_error():
    suite = suite_algebra(seed=1)
    by_name = {c.name: c for c in suite.checks}
    assert by_name["four_term_identity"].measured <= 1e-10
    assert by_name["zero_bias_reduction"].measured == 0.0


def test_graph_suite_counts_zero_violations():
    suite = suite_graph(seed=1, trees=40, max_nodes=15)
    assert all(c.measured == 0.0 for c in suite.checks)


def test_reports_serialize_even_with_numpy_scalars():
    # Suites built on numpy comparisons must still produce valid JSON.
    import json

    from sga.verify import CheckResult, SuiteResult

    result = SuiteResult(suite="x")
    result.checks.append(
        CheckResult("c", measured=np.float64(0.5), tolerance=np.float64(1.0))
    )
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["checks"][0]["passed"] is True
    assert result.passed is True


def test_a_check_passes_only_within_its_tolerance():
    from sga.verify import CheckResult, SuiteResult

    assert CheckResult("at", measured=1e-9, tolerance=1e-9).passed
    result = SuiteResult(suite="x")
    for measured in (0.0, 2e-9, float("nan")):
        result.checks.append(CheckResult("c", measured=measured, tolerance=1e-9))
    assert [c.passed for c in result.checks] == [True, False, False]
    assert result.passed is False
    assert result.to_dict()["passed"] is False
    assert [c["passed"] for c in result.to_dict()["checks"]] == [True, False, False]
