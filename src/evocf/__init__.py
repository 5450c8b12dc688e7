"""Evolutionary counterfactual sequence generation for event logs."""

from .event_log import (
    AttributeSchema,
    EncodedLog,
    EncodedTrace,
    EncoderSpec,
    Event,
    EventLog,
    Trace,
    decode,
    encode,
    fit_encoder,
    load_csv,
    preprocess,
    split_train_test,
    synthesize_log,
)
from .evolution import EvoConfig, GenerationResult, evolve
from .markov import MarkovFeasibilityModel, feasibility, fit
from .predictor import LogisticOutcomePredictor, OutcomePredictor, train
from .viability import ViabilityScore, delta_score, similarity_score, sparsity_score, ssdld

__all__ = [
    "AttributeSchema",
    "EncodedLog",
    "EncodedTrace",
    "EncoderSpec",
    "EvoConfig",
    "Event",
    "EventLog",
    "GenerationResult",
    "LogisticOutcomePredictor",
    "MarkovFeasibilityModel",
    "OutcomePredictor",
    "Trace",
    "ViabilityScore",
    "decode",
    "delta_score",
    "encode",
    "evolve",
    "feasibility",
    "fit",
    "fit_encoder",
    "load_csv",
    "preprocess",
    "similarity_score",
    "sparsity_score",
    "split_train_test",
    "ssdld",
    "synthesize_log",
    "train",
]
