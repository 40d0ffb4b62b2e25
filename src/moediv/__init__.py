"""Divergence-guided mixture-of-experts training and routing analysis.

A desk-scale MoE language-model trainer built on a small float64 autodiff
engine. Beyond the usual language-modeling and load-balancing objectives it
adds a domain-divergence auxiliary loss that pushes the router to develop
distinct routing policies per data domain, plus the analysis tooling
(diversity decomposition, router-permutation perplexity, activation
heatmaps, ternary projections) to measure the resulting specialization.
"""

from .data import DataConfig, DomainBatch, SynthDomainSpec, load_corpus, pack_batches, synth_corpus
from .divergence import (
    DivergenceReport,
    decompose,
    entropy,
    generalized_jsd,
    jsd_pair,
    kl,
)
from .model import ModelConfig, MoEModel, forward, load_checkpoint, perplexity, save_checkpoint
from .tensor import Tensor, backward, grad_check, no_grad
from .trainer import AdamWState, TrainConfig, objective, run_training, train_step

__version__ = "0.1.0"
