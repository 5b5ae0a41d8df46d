"""Syntax-graph attention: relation-path encoding over dependency parses
feeding a relation-biased multi-head character encoder, with gradient
verification throughout.

The top level holds the API the README documents; everything else is
imported from its submodule (``sga.relation``, ``sga.encoder``, ...).
"""

from .config import PipelineConfig
from .conllu import read_conllu
from .gradcheck import check_gradient
from .pipeline import Model

__version__ = "0.1.0"

__all__ = ["Model", "PipelineConfig", "check_gradient", "read_conllu"]
