"""Diagnostic vocabulary of the static schedule verifier.

Every checker in :mod:`repro.verify` reports findings as
:class:`Diagnostic` objects carrying a stable machine-readable rule ID
(``RACE001``, ``DIR002``, ``CAP003``, ...), so that the CLI, the CI
gate and the test-suite can assert on exact rules rather than on
message strings.  :data:`RULES` is the authoritative catalogue: one
entry per rule, each naming the paper invariant it enforces.

Severity semantics
------------------
``error``
    The schedule violates a correctness invariant (lost column, race,
    deadlock risk, broken sweep closure, oversubscribed channel).  Any
    error makes a :class:`Report` fail (``ok == False``).
``warning``
    Legal but costly behaviour the paper's orderings are designed to
    avoid (e.g. a rotation pair spanning two leaves).  Warnings never
    fail the gate; the cost model charges them instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RULES", "Diagnostic", "Report", "rule_description"]


#: Rule catalogue: rule ID -> (severity, one-line description).
RULES: dict[str, tuple[str, str]] = {
    "RACE001": ("error", "slot appears in two rotation pairs of one step (write-write race)"),
    "RACE002": ("error", "two moves share a source or destination slot in one step"),
    "RACE003": ("error", "moves are not a partial permutation: a send has no matching "
                         "receive, so a column is lost or duplicated (dropped exchange)"),
    "RACE004": ("error", "column-to-slot placement stops being a bijection during the sweep"),
    "RACE005": ("warning", "rotation pair spans two leaves: both processors read and "
                           "update the same column pair in one step"),
    "DIR001": ("error", "cyclic channel dependency in a communication phase (deadlock risk)"),
    "DIR002": ("error", "ring message travels against the sweep's single direction "
                        "(backward edge)"),
    "DIR003": ("error", "ring message spans more than one ring position in one step"),
    "CAP001": ("error", "static per-level contention disagrees with the dynamic "
                        "analysis (internal cross-check)"),
    "CAP002": ("error", "message endpoint outside the topology (schedule does not fit "
                        "the machine)"),
    "CAP003": ("error", "channel load exceeds channel capacity in one phase "
                        "(oversubscribed link)"),
    "SWEEP001": ("error", "index pair rotated more than once in one sweep (duplicate pair)"),
    "SWEEP002": ("error", "index pair never rotated during the sweep (missing pair)"),
    "SWEEP003": ("error", "index order not restored within the allowed number of sweeps"),
    "EXEC001": ("error", "two executor chunks of one step stage write the same slot "
                         "(parallel write-write hazard)"),
    "EXEC002": ("error", "an unsplittable kernel stage (the batched inner Gram solve) "
                         "is split across executor chunks"),
    "EXEC003": ("error", "chunk bounds are not an in-order contiguous partition of the "
                         "step's work items (serial-merge order not deterministic)"),
    "EXEC004": ("warning", "executor chunking skews load: the largest chunk holds at "
                           "least twice the ideal per-chunk share"),
    "PLAN001": ("error", "compiled step arrays disagree with the source schedule "
                         "(pair/move lowering corrupted)"),
    "PLAN002": ("error", "compiled trajectory or final layout disagrees with the "
                         "schedule's move phases (sweep permutation corrupted)"),
    "PLAN003": ("error", "plan cache returned a plan whose structure disagrees with "
                         "the schedule (stale instance memo or fingerprint collision)"),
    "FT001": ("error", "a single-leaf failure leaves no sound degraded remap "
                       "(host map broken or degraded routing impossible)"),
    "SAN001": ("error", "runtime write-set violation: a worker touched columns outside "
                        "its static write-set, disjoint chunks overlapped, or the "
                        "dispatched bounds diverged from the static chunking"),
    "SAN002": ("error", "non-finite entry in the factors at a sweep boundary "
                        "(runtime numeric canary)"),
    "SAN003": ("error", "numeric invariant drifted at a sweep boundary "
                        "(Frobenius norm of X or orthogonality of V)"),
}


def rule_description(rule: str) -> str:
    """One-line description of a rule ID (raises ``KeyError`` if unknown)."""
    return RULES[rule][1]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation (or warning) at a specific sweep step.

    ``step`` is 1-based like the paper's figures; ``None`` means the
    finding concerns the sweep as a whole (e.g. a missing pair).
    ``details`` holds rule-specific data as sorted ``(key, value)``
    pairs so the object stays hashable and deterministic.
    """

    rule: str
    message: str
    step: int | None = None
    details: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule ID {self.rule!r}")

    @property
    def severity(self) -> str:
        return RULES[self.rule][0]

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "step": self.step,
            "message": self.message,
            "details": dict(self.details),
        }

    def render(self) -> str:
        where = f" step {self.step}" if self.step is not None else ""
        return f"{self.rule}[{self.severity}]{where}: {self.message}"


@dataclass
class Report:
    """Outcome of linting one target (one schedule or one ordering).

    ``checks`` lists the analyses that actually ran (capacity checks,
    for instance, need a topology), so "no findings" can be told apart
    from "not checked".
    """

    target: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        """True iff no error-severity diagnostic was found."""
        return not self.errors

    def rules_fired(self) -> set[str]:
        return {d.rule for d in self.diagnostics}

    def extend(self, diagnostics: list[Diagnostic], check: str) -> None:
        """Record one analysis pass and its findings."""
        self.checks.append(check)
        self.diagnostics.extend(diagnostics)

    def to_dict(self) -> dict[str, object]:
        return {
            "target": self.target,
            "ok": self.ok,
            "checks": list(self.checks),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        status = "ok" if self.ok else f"FAIL ({len(self.errors)} error(s))"
        lines = [f"{self.target}: {status}  [checks: {', '.join(self.checks)}]"]
        lines += [f"  {d.render()}" for d in self.diagnostics]
        return "\n".join(lines)
