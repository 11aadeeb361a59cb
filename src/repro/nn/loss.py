"""Binary cross-entropy on logits, with the fused stable gradient."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["bce_with_logits", "sigmoid"]


def _sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sigmoid(x), e)`` with ``e = exp(-|x|)``, branch-free.

    ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere are
    each sign's stable form, evaluated by the same operations as the
    two-branch version and so to the same bits; ``-|x|`` is taken as
    ``where(x >= 0, -x, x)`` so a NaN keeps its sign, as it did there.
    """
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0, e) / (1.0 + e), e


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of float64 logits."""
    return _sigmoid(x)[0]


def bce_with_logits(
    logits: np.ndarray,
    labels: np.ndarray,
    bounds: Sequence[int] | None = None,
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Losses, per-example probabilities, and d(loss)/d(logit).

    ``bounds`` cuts the rows into consecutive minibatches
    ``bounds[w]:bounds[w + 1]`` (default: one of every row).  Each gets
    its own loss, the mean over its rows, and its own gradient, the
    classic fused form ``(p - y) / n`` with its own ``n`` — bit for bit
    what that minibatch alone would give.  The fused form avoids the
    catastrophic cancellation of computing ``log`` and its derivative
    separately.
    """
    logits = np.asarray(logits, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=np.float64).ravel()
    if logits.shape != labels.shape:
        raise ValueError("logits and labels must have the same shape")
    if bounds is None:
        bounds = (0, logits.size)
    p, e = _sigmoid(logits)
    # log(1 + exp(-|x|)) form is stable for both signs.
    terms = np.maximum(logits, 0) - logits * labels + np.log1p(e)
    grad = p - labels
    losses = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            raise ValueError("empty loss input")
        losses.append(float(np.mean(terms[lo:hi])))
        grad[lo:hi] /= hi - lo
    return losses, p, grad
