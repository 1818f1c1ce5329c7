"""Language-independent entity linking toolkit.

Pipeline: ingest a knowledge base into an anchor-title index, train a
collective max-ent linker over connected components of mentions, decode
documents to KB ids (with NIL handling), and score predictions.
"""

from .config import PipelineConfig
from .evaluator import EvalReport, b3plus_f1, bot_f1
from .features import FeatureExtractor, FeatureRegistry, PmiTable, default_registry, train_pmi
from .kb_store import NIL, AnchorIndex, Candidate, KbEntry, build_index, load_kb_jsonl
from .maxent import Model, Prediction, decode, nil_cluster, train
from .segmenter import (
    ConnectedComponent,
    Mention,
    MentionDocument,
    connected_components,
    load_documents,
)
from .text_vsm import TermVector, cosine, tokenize

__version__ = "0.1.0"

__all__ = [
    "AnchorIndex",
    "Candidate",
    "ConnectedComponent",
    "EvalReport",
    "FeatureExtractor",
    "FeatureRegistry",
    "KbEntry",
    "Mention",
    "MentionDocument",
    "Model",
    "NIL",
    "PipelineConfig",
    "PmiTable",
    "Prediction",
    "TermVector",
    "b3plus_f1",
    "bot_f1",
    "build_index",
    "connected_components",
    "cosine",
    "decode",
    "default_registry",
    "load_documents",
    "load_kb_jsonl",
    "nil_cluster",
    "tokenize",
    "train",
    "train_pmi",
    "__version__",
]
