"""External scorer for the benchmark: the JSON line protocol on stdin/stdout,
answered by the program's own ReferenceScorer.

    -> {"op": "score", "source": "...", "candidate": "..."}   <- {"logprobs": [...]}
    -> {"op": "generate", "source": "..."}                     <- {"text": "..."}

Because the answers are the reference scorer's, a report produced through
this stub must equal the in-process `--scorer reference` report.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_scorer_class():
    """The program's ReferenceScorer. Its module is loaded on its own when it
    allows that, because importing it through the package imports the whole
    evaluation harness, and this stand-in for a model starts once per
    `evaluate` command."""
    spec = importlib.util.spec_from_file_location(
        "signalmine_scorers", SRC / "signalmine" / "eval_harness" / "scorers.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError:  # the module imports from its package
        sys.path.insert(0, str(SRC))
        from signalmine.eval_harness.scorers import ReferenceScorer

        return ReferenceScorer
    return module.ReferenceScorer


def main() -> int:
    scorer = reference_scorer_class()()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "score":
            reply = {"logprobs": scorer.score(request["source"], request["candidate"])}
        else:
            reply = {"text": scorer.generate(request["source"])}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
