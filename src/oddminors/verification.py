"""Uniform result type for all certificate and structure checkers."""

from __future__ import annotations

from ._record import Record


class VerificationReport(Record):
    """Outcome of an independent re-check.

    ``failures`` holds one human-readable line per violated property; an
    empty tuple means every checked property held.
    """

    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        if self.passed:
            return "PASS\n"
        return "FAIL\n" + "\n".join(f"  - {f}" for f in self.failures) + "\n"
