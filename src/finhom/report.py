"""Deterministic check reports.

A report echoes the command and seed, lists one record per check
(name, status, witness) sorted by name, and carries summary counts.
The machine-readable form is a line-oriented text document that is
byte-identical across reruns with the same inputs and seed; wall time
appears only in the human rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

FORMAT_HEADER = "finhom-report 1"


def _escape(s: str) -> str:
    return (s.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    witness: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class Report:
    command: str
    seed: int
    checks: List[CheckRecord] = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name: str, passed: bool, witness: str = ""):
        self.checks.append(CheckRecord(name, passed, witness))

    @property
    def pass_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def fail_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def all_pass(self) -> bool:
        return self.fail_count == 0

    @property
    def exit_code(self) -> int:
        return 0 if self.all_pass else 1

    def sorted_checks(self) -> List[CheckRecord]:
        return sorted(self.checks, key=lambda c: c.name)

    def to_machine(self) -> str:
        lines = [FORMAT_HEADER,
                 f"command\t{_escape(self.command)}",
                 f"seed\t{self.seed}"]
        for c in self.sorted_checks():
            lines.append(f"check\t{_escape(c.name)}\t{c.status}\t{_escape(c.witness)}")
        lines.append(f"summary\tpass={self.pass_count}\tfail={self.fail_count}")
        return "\n".join(lines) + "\n"

    def to_human(self) -> str:
        lines = [f"command: {self.command}", f"seed: {self.seed}"]
        for c in self.sorted_checks():
            line = f"  [{c.status:>4}] {c.name}"
            if c.witness:
                line += f"  -- {c.witness}"
            lines.append(line)
        lines.append(f"summary: {self.pass_count} passed, {self.fail_count} failed")
        lines.append(f"wall-time: {self.wall_time:.3f}s")
        return "\n".join(lines) + "\n"
