"""The report every seeded drill returns.

The five drills (``chaos``, ``harden``, ``fleet``, ``stream`` and
``failover``) each check a list of invariants and pin their run with a
deterministic digest.  :class:`DrillReport` owns the verdict, the
failure list and the text rendering, and :func:`canonical_digest` the
hash; a drill's report adds only its own fields, its title and its
summary lines.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, List


@dataclass(frozen=True)
class InvariantResult:
    """One checked invariant."""

    name: str
    ok: bool
    detail: str = ""


def canonical_digest(payload: Any, digest_size: int) -> str:
    """blake2b hex digest of ``payload`` as sorted, compact JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=digest_size
    ).hexdigest()


@dataclass
class DrillReport:
    """Invariant verdicts plus the run's deterministic digest."""

    invariants: List[InvariantResult] = field(default_factory=list)
    digest: str = ""

    @property
    def passed(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def failures(self) -> List[InvariantResult]:
        return [inv for inv in self.invariants if not inv.ok]

    def title(self) -> str:
        """What ran, e.g. ``"stream drill seed 0"``."""
        raise NotImplementedError

    def summary_lines(self) -> List[str]:
        """The drill's own counters, rendered between title and digest."""
        return []

    def format(self) -> str:
        """Human-readable report: verdict, summary, digest, invariants."""
        lines = [f"{self.title()}: {'PASS' if self.passed else 'FAIL'}"]
        lines.extend(self.summary_lines())
        lines.append(f"digest            {self.digest}")
        for inv in self.invariants:
            mark = "ok " if inv.ok else "FAIL"
            lines.append(
                f"invariant [{mark}]   {inv.name}"
                + (f" — {inv.detail}" if inv.detail else "")
            )
        return "\n".join(lines)
