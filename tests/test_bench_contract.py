"""The names the benchmark harness in `perfbench/` reads or wraps.

Its tracer replaces functions and methods at the names their callers look
up, and its correctness checks read model state directly, so renaming one
of these in `src/` breaks the traced runs; these tests fail first.
"""

import inspect

import numpy as np

import sga
from sga import autodiff, pipeline, relation, training
from sga.config import PipelineConfig
from sga.pipeline import Model

GATES = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


def test_wrapped_functions_are_module_globals():
    for owner, name in (
        (sga, "read_conllu"),
        (relation, "distinct_paths"),
        (pipeline, "encoder_forward"),
        (autodiff, "backward"),
        (training, "sentence_loss"),
    ):
        assert callable(vars(owner).get(name)), f"{owner.__name__}.{name}"
    # The encoder span reads the character ids and the stack by position.
    assert list(inspect.signature(pipeline.encoder_forward).parameters)[:3] == [
        "char_ids", "relations", "stack",
    ]


def test_wrapped_methods_are_own_class_attributes():
    for name in ("create", "prepare", "encode_relations"):
        assert name in Model.__dict__, name
    assert "step" in training.Adam.__dict__


def test_state_the_checks_read(flight_tree):
    model = Model.create(PipelineConfig.toy(seed=0), [flight_tree])
    keys = list(model.label_vocab.keys())
    assert keys[:2] == ["self", "<unk>"]
    assert [model.label_vocab[k] for k in keys] == list(range(len(keys)))
    assert model.relation.edge_embedding.data.shape[0] == len(keys)
    for cell in (model.relation.gru_fwd, model.relation.gru_bwd):
        for name in GATES:
            assert isinstance(getattr(cell, name).data, np.ndarray), name
    for head in model.stack.blocks[0].heads:
        for name in ("w_q", "w_k", "w_r"):
            assert isinstance(getattr(head, name).data, np.ndarray), name
    sentence = model.prepare(flight_tree)
    unique, table = relation.distinct_paths(sentence.char_map)
    relations = model.encode_relations(sentence)
    assert table.shape == relations.pair_index.shape == (sentence.n_chars, sentence.n_chars)
    assert len(unique) == len(relations.paths) == relations.encodings.data.shape[0]

