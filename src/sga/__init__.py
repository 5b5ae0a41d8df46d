"""Syntax-graph attention: relation-path encoding over dependency parses
feeding a relation-biased multi-head character encoder, with gradient
verification throughout."""

from .autodiff import Parameter, Tensor, backward, matmul, softmax
from .config import PipelineConfig
from .conllu import CharAlignment, DependencyTree, align_characters, read_conllu
from .encoder import (
    AttentionHeadParams,
    EncoderBlockParams,
    EncoderStackParams,
    attention_weights,
    baseline_forward,
    baseline_score,
    encoder_forward,
    graph_attention_layer,
    syntax_score,
    syntax_score_terms,
)
from .gradcheck import GradCheckReport, check_gradient
from .gru import GruCellParams, gru_cell_forward
from .pipeline import Model, Sentence, build_char_vocab
from .relation import (
    LabelVocab,
    RelationEncoderParams,
    RelationTensor,
    build_label_vocab,
    encode_distinct_batch,
    encode_path,
)
from .serialize import load_parameters, save_parameters
from .syntax_graph import (
    CharRelationMap,
    DirectedLabel,
    Direction,
    RelationPath,
    SyntaxGraph,
    build_syntax_graph,
    distinct_paths,
    expand_to_characters,
    shortest_relation_path,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionHeadParams",
    "CharAlignment",
    "CharRelationMap",
    "DependencyTree",
    "DirectedLabel",
    "Direction",
    "EncoderBlockParams",
    "EncoderStackParams",
    "GradCheckReport",
    "GruCellParams",
    "LabelVocab",
    "Model",
    "Parameter",
    "PipelineConfig",
    "RelationEncoderParams",
    "RelationPath",
    "RelationTensor",
    "Sentence",
    "SyntaxGraph",
    "Tensor",
    "align_characters",
    "attention_weights",
    "backward",
    "baseline_forward",
    "baseline_score",
    "build_char_vocab",
    "build_label_vocab",
    "build_syntax_graph",
    "check_gradient",
    "distinct_paths",
    "encode_distinct_batch",
    "encode_path",
    "encoder_forward",
    "expand_to_characters",
    "graph_attention_layer",
    "gru_cell_forward",
    "load_parameters",
    "matmul",
    "read_conllu",
    "save_parameters",
    "shortest_relation_path",
    "softmax",
    "syntax_score",
    "syntax_score_terms",
]
