"""Extraction bookkeeping: what was accepted, what was rejected and why."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class ExtractionReport:
    accepted: Counter = field(default_factory=Counter)  # signal_type -> n
    rejected: Counter = field(default_factory=Counter)  # (signal_type, rule) -> n
    skipped_docs: Counter = field(default_factory=Counter)  # (mine, rule) -> n
    docs_processed: int = 0

    def accept(self, signal_type: str) -> None:
        self.accepted[signal_type] += 1

    def reject(self, signal_type: str, rule: str) -> None:
        self.rejected[(signal_type, rule)] += 1

    def skip_doc(self, mine: str, rule: str) -> None:
        self.skipped_docs[(mine, rule)] += 1

    def add(self, other: ExtractionReport) -> None:
        """Add `other`'s counts to these."""
        self.accepted.update(other.accepted)
        self.rejected.update(other.rejected)
        self.skipped_docs.update(other.skipped_docs)
        self.docs_processed += other.docs_processed

    def to_json(self) -> str:
        return json.dumps(
            {
                "docs_processed": self.docs_processed,
                "accepted": dict(sorted(self.accepted.items())),
                "rejected": {f"{sig}:{rule}": n for (sig, rule), n in sorted(self.rejected.items())},
                "skipped_docs": {f"{mine}:{rule}": n for (mine, rule), n in sorted(self.skipped_docs.items())},
            },
            indent=2,
            sort_keys=True,
        )
