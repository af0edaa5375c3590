"""Distantly supervised token classification with difficulty-ordered
curricula and confidence-based positive-unlabeled training.

The package is organized around one pipeline: dictionary annotation gives
noisy token labels; an ensemble of small classifiers ("voters") turns
inter-voter disagreement into per-token difficulty scores and entity
confidence; a power-law curriculum orders the positive tokens easy-to-hard;
a fresh classifier trains stage by stage under a confidence-weighted PU
risk, optionally followed by soft-label self-training; strict and relaxed
span metrics evaluate the result.
"""

__version__ = "0.3.0"
