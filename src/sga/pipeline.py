"""Glue: vocabularies, per-sentence preparation, and the assembled model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Parameter, glorot_uniform
from .config import PipelineConfig
from .conllu import DependencyTree
from .encoder import EncoderBlockParams, EncoderStackParams, encoder_forward
from .relation import LabelVocab, RelationEncoderParams, RelationTensor, encode_paths
from .syntax_graph import CharRelationMap, build_syntax_graph, expand_to_characters


def build_char_vocab(trees: Sequence[DependencyTree]) -> dict[str, int]:
    """Dense id per distinct word character across the corpus (sorted)."""
    chars = sorted({c for tree in trees for form in tree.forms for c in form})
    if not chars:
        raise ValueError("cannot build a character vocabulary from no trees")
    return {c: i for i, c in enumerate(chars)}


@dataclass
class Sentence:
    """Structure derived from one parse, independent of any parameters."""

    tree: DependencyTree
    char_map: CharRelationMap
    char_ids: np.ndarray

    @property
    def n_chars(self) -> int:
        return int(self.char_ids.size)


@dataclass
class Model:
    """Relation encoder plus graph encoder over shared vocabularies."""

    config: PipelineConfig
    char_vocab: dict[str, int]
    label_vocab: LabelVocab
    relation: RelationEncoderParams
    stack: EncoderStackParams

    @classmethod
    def create(cls, config: PipelineConfig, trees: Sequence[DependencyTree]) -> "Model":
        char_vocab = build_char_vocab(trees)
        graphs = [build_syntax_graph(tree) for tree in trees]
        label_vocab = LabelVocab.build(graphs)
        rng = np.random.default_rng(config.seed)
        relation = RelationEncoderParams.create(
            len(label_vocab), config.d_e, config.d_h, rng
        )
        embedding = Parameter(
            "enc.char_embedding", glorot_uniform(rng, len(char_vocab), config.d_model)
        )
        blocks = tuple(
            EncoderBlockParams.create(
                f"enc.block{b}", config.d_model, config.heads, config.d_ff, config.d_h, rng
            )
            for b in range(config.n_blocks)
        )
        stack = EncoderStackParams(blocks, embedding, config.use_positions)
        return cls(config, char_vocab, label_vocab, relation, stack)

    def parameters(self) -> list[Parameter]:
        return self.relation.parameters() + self.stack.parameters()

    def prepare(self, tree: DependencyTree) -> Sentence:
        """The character map and character ids of one parse. The sentence
        rendered with single spaces between words, spaces included, must
        fit in `max_chars`, and its characters must be in the vocabulary."""
        length = len(" ".join(tree.forms))
        if length > self.config.max_chars:
            raise ValueError(
                f"rendered sentence has {length} characters, exceeding the "
                f"configured maximum of {self.config.max_chars}"
            )
        char_map = expand_to_characters(tree)
        missing = set(char_map.chars) - self.char_vocab.keys()
        if missing:
            raise ValueError(
                f"characters {sorted(missing)!r} missing from the vocabulary"
            )
        ids = np.asarray([self.char_vocab[c] for c in char_map.chars], dtype=np.int64)
        return Sentence(tree=tree, char_map=char_map, char_ids=ids)

    def encode_relations(self, sentence: Sentence) -> RelationTensor:
        cmap = sentence.char_map
        return RelationTensor(
            encodings=encode_paths(cmap.table, self.relation, self.label_vocab),
            pair_index=cmap.pair_index(),
            char_map=cmap,
        )

    def forward(
        self,
        sentence: Sentence,
        collect_attention: bool = False,
        zero_relations: bool = False,
        baseline: bool = False,
    ):
        """Run the encoder on one prepared sentence.

        `baseline` skips the relation machinery entirely; `zero_relations`
        runs it but with all-zero encodings (the two agree bit for bit).
        Outside `autodiff.recording()` (which `training.sentence_loss`
        opens) the pass records no tape and computes the same bits.
        """
        relations = None
        if not baseline:
            relations = self.encode_relations(sentence)
            if zero_relations:
                relations = relations.zeroed()
        return encoder_forward(
            sentence.char_ids, relations, self.stack, collect_attention
        )
