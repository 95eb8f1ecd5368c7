"""Option scoring: pick the candidate with the highest mean per-token
log-likelihood given the source; ties go to the lowest index."""

from __future__ import annotations

import math
from typing import Sequence

from .scorers import ModelScorer, ask


def best_mean(logprobs: Sequence[Sequence[float]]) -> int:
    """The index of the option whose log-likelihoods have the highest mean
    (an option with none has mean -inf); ties go to the lowest index."""
    means = [sum(lps) / len(lps) if lps else -math.inf for lps in logprobs]
    return max(range(len(means)), key=means.__getitem__)  # the first of equal maxima


def score_mc(source: str, options: list[str], scorer: ModelScorer) -> int | None:
    """Chosen option index, or None when the scorer failed (counts as wrong)."""
    if len(options) < 2:
        raise ValueError("score_mc needs at least two options")
    [replies] = ask(scorer, [[("score", source, option) for option in options]])
    return None if replies is None else best_mean(replies)
