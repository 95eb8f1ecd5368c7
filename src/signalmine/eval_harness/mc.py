"""Option scoring: pick the candidate with the highest mean per-token
log-likelihood given the source; ties go to the lowest index."""

from __future__ import annotations

import math

from .scorers import ModelScorer, ScorerError, prefetch


def option_mean_logprobs(source: str, options: list[str], scorer: ModelScorer) -> list[float]:
    means = []
    for option in options:
        logprobs = scorer.score(source, option)
        means.append(sum(logprobs) / len(logprobs) if logprobs else -math.inf)
    return means


def score_mc(source: str, options: list[str], scorer: ModelScorer) -> int | None:
    """Chosen option index, or None when the scorer failed (counts as wrong)."""
    if len(options) < 2:
        raise ValueError("score_mc needs at least two options")
    prefetch(scorer, [("score", source, option) for option in options])
    return choose_option(source, options, scorer)


def choose_option(source: str, options: list[str], scorer: ModelScorer) -> int | None:
    """`score_mc` for options whose requests the caller has already prefetched."""
    try:
        means = option_mean_logprobs(source, options, scorer)
    except ScorerError:
        return None
    best = 0
    for i in range(1, len(means)):
        if means[i] > means[best]:
            best = i
    return best
