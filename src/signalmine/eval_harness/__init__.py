from .scorers import ExternalCommandScorer, ModelScorer, ReferenceScorer, ScorerError, ask
from .mc import score_mc
from .ner import eval_two_step_ner, micro_f1
from .gaokao import GaokaoPaper, SectionScore, grade_gaokao
from .datasets import eval_dataset

__all__ = [
    "ExternalCommandScorer",
    "ModelScorer",
    "ReferenceScorer",
    "ScorerError",
    "ask",
    "score_mc",
    "eval_two_step_ner",
    "micro_f1",
    "GaokaoPaper",
    "SectionScore",
    "grade_gaokao",
    "eval_dataset",
]
