"""Response checker: every response against the generator's model.

A response fails when it is missing (an exception or no response at
all), carries the wrong status, carries the wrong body, or contains a
canary string of a user the viewer is not authorized for.  Each failed
check counts once in ``failed`` (which feeds ``error_rate``); every
problem it had is counted in ``reasons``.
"""

from __future__ import annotations

import re
from typing import Any

from world import Op

CANARY_RE = re.compile(r"cnry[0-9a-f]{12}")


class Checker:
    """Counts checks attempted and failed, with reasons and examples."""

    def __init__(self, owner_of: dict[str, str]) -> None:
        self.owner_of = owner_of
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.examples: list[str] = []

    def _count(self, problems: list[tuple[str, str]]) -> bool:
        if not problems:
            return True
        self.failed += 1
        for reason, detail in problems:
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{reason}: {detail}"[:300])
        return False

    def check(self, op: Op, response: Any) -> bool:
        """Judge one front-door response; True when it is correct.  A
        response with several problems counts as one failure."""
        self.attempted += 1
        if response is None:
            return self._count([("missing", op.key())])
        if isinstance(response, BaseException):
            return self._count([("exception",
                                 f"{type(response).__name__}: {response}")])
        problems = []
        leaked = self._leaks(op, response.body)
        if leaked:
            problems.append(("canary_leak",
                             f"{op.key()} leaked {sorted(leaked)}"))
        if response.status != op.status:
            problems.append(("status", f"{op.key()} got {response.status},"
                                       f" want {op.status}"))
        elif not self._body_ok(op, response.body):
            problems.append(("body", f"{op.key()} got {response.body!r}"))
        return self._count(problems)

    def check_outcome(self, reason: str, ok: bool, detail: str = "") -> bool:
        """Count one non-response check (convergence, recovery)."""
        self.attempted += 1
        return self._count([] if ok else [(reason, detail)])

    def _leaks(self, op: Op, body: Any) -> set[str]:
        text = body if isinstance(body, str) else repr(body)
        owners = {self.owner_of.get(c, c) for c in CANARY_RE.findall(text)}
        return owners - op.allowed

    @staticmethod
    def _body_ok(op: Op, body: Any) -> bool:
        if op.body is not None:
            return body == op.body
        return body in op.alts

    def summary(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": dict(self.reasons),
                "examples": list(self.examples)}

