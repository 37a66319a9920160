"""Bilevel hyperparameter optimization with ensemble hypergradients.

The package tunes regularization-style hyperparameters by differentiating
through (or around) an inner gradient-descent solve: iterative reverse-mode
differentiation (full and truncated), implicit differentiation with conjugate
gradient or fixed-point linear solvers, validation-split ensembling of the
resulting hypergradients, and an online variant that keeps per-split shadow
iterates. Closed-form ridge oracles and Monte-Carlo bias-variance diagnostics
quantify estimator quality.

Import each name from the submodule that defines it (bihpo.data,
bihpo.strategies, ...); the package itself exports only __version__.
"""

__version__ = "0.1.0"
