"""clspool: classify from the per-layer [CLS] trace of a small transformer.

A self-contained numpy stack: reverse-mode autodiff tensors, a desk-scale
BERT-shaped encoder exposing every layer's [CLS] state, three pooling
heads over that trace (last / lstm / attention), a cross-validated
training harness, and a PCA-based layer-geometry analysis pipeline.
"""

from .tensor import Tensor, ShapeError
from .encoder import EncoderConfig, MiniEncoder
from .pooling import (HEAD_KINDS, HEADS, AttentionPoolHead, ClassifierHead, LastPoolHead,
                      LSTMPoolHead, classify)
from .model import PooledClassifier
from .train import (Adam, CVResult, EvalResult, TrainConfig, cross_validated_train,
                    evaluate, kfold_split, regularized_loss, train_model)
from .data import (DataError, PairExample, Vocab, load_jsonl, pack_dataset, save_jsonl,
                   synth_generate, vocab_for_examples)
from .analysis import (LayerDump, Projection2D, cluster_score, dump_trace,
                       pca_project, project_dump_dir)
from .gradcheck import run_gradcheck
from . import train

# glibc keeps freed memory for reuse from here on, whatever entry point runs.
train._keep_freed_memory()

__version__ = "0.1.0"
