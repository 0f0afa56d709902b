"""Collaborative filtering with a Renyi-divergence robust softmax loss
family, plus a brute-force certification suite for its dual reductions."""

from .dataio import (
    DatasetSplit,
    InteractionLog,
    NoiseConfig,
    UserItems,
    load_interactions,
    sample_batch,
    split_iid,
    split_temporal,
)
from .dro_core import (
    DivergenceKind,
    DroInstance,
    DualCertificate,
    inner_max_bruteforce,
    lambda_star,
    minimize_beta_objective,
    solve_beta,
)
from .graphmodel import (
    BackboneConfig,
    EmbeddingTable,
    InteractionGraph,
    load_checkpoint,
    save_checkpoint,
)
from .losses import LossSpec, MarginState, batch_loss
from .metrics import evaluate_ranking
from .trainer import TrainConfig, TrainReport, train
from .verify import run_suites

__all__ = [
    "BackboneConfig",
    "DatasetSplit",
    "DivergenceKind",
    "DroInstance",
    "DualCertificate",
    "EmbeddingTable",
    "InteractionGraph",
    "InteractionLog",
    "LossSpec",
    "MarginState",
    "NoiseConfig",
    "TrainConfig",
    "TrainReport",
    "UserItems",
    "batch_loss",
    "evaluate_ranking",
    "inner_max_bruteforce",
    "lambda_star",
    "load_checkpoint",
    "load_interactions",
    "minimize_beta_objective",
    "run_suites",
    "sample_batch",
    "save_checkpoint",
    "solve_beta",
    "split_iid",
    "split_temporal",
    "train",
]

__version__ = "0.1.0"
