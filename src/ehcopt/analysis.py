"""Evaluation harness: extreme allocations vs. the optimum.

The extreme cases E, H, C place every non-fixed task on a single device
(tasks with a one-device allowed set keep their mandated device); O_L
and O_E are the solver optima under the latency respectively energy
objective.  Infeasible or inapplicable cases are reported with their
violations instead of being dropped, so a report always carries all
five rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from .etfg import Etfg
from .milp import Objective, ObjectiveBreakdown, evaluate, objective_value
from .model import ROLES, DeviceRole, json_text
from .solver import Allocation, SolveConfig, SolveStatus, solve
from .units import si_number

EXTREME_KINDS = (("E", DeviceRole.EDGE), ("H", DeviceRole.HUB), ("C", DeviceRole.CLOUD))
CASE_ORDER = ("E", "H", "C", "O_L", "O_E")


@dataclass(frozen=True)
class BaselineCase:
    kind: str  # E, H, C, O_L, O_E
    assignment: dict[int, DeviceRole] | None
    breakdown: ObjectiveBreakdown | None
    feasible: bool | None  # None: the solver timed out before finding an allocation
    objective_value: Fraction | None  # under the case's own objective where applicable
    detail: str | None = None  # why a case is inapplicable, infeasible or unknown

    def to_dict(self) -> dict:
        return {
            "case": self.kind,
            "feasible": self.feasible,
            "detail": self.detail,
            "assignment": (
                None
                if self.assignment is None
                else {str(t): d.value for t, d in sorted(self.assignment.items())}
            ),
            "objective_value": (
                None if self.objective_value is None else si_number(self.objective_value)
            ),
            "breakdown": None if self.breakdown is None else self.breakdown.to_dict(),
        }


def extreme_assignment(etfg: Etfg, device: DeviceRole) -> tuple[dict[int, DeviceRole] | None, str | None]:
    """All non-fixed tasks on ``device``; fixed tasks keep their device.
    Returns (assignment, None) or (None, reason) when some task cannot
    run on the forced device."""
    assignment: dict[int, DeviceRole] = {}
    for task in etfg.graph.tasks:
        if task.fixed:
            assignment[task.id] = task.allowed[0]
        elif device in task.allowed:
            assignment[task.id] = device
        else:
            return None, f"task {task.id} may not run on device {device.value}"
    return assignment, None


def run_baselines(
    etfg: Etfg,
    objective: Objective | str = Objective.LATENCY,
    latency_threshold: Fraction | None = None,
    config: SolveConfig | None = None,
) -> list[BaselineCase]:
    objective = Objective(objective)
    threshold_for_eval = latency_threshold if objective is Objective.ENERGY else None
    cases: list[BaselineCase] = []
    for kind, device in EXTREME_KINDS:
        assignment, reason = extreme_assignment(etfg, device)
        if assignment is None:
            cases.append(
                BaselineCase(
                    kind=kind,
                    assignment=None,
                    breakdown=None,
                    feasible=False,
                    objective_value=None,
                    detail=f"inapplicable: {reason}",
                )
            )
            continue
        breakdown = evaluate(etfg, assignment, threshold_for_eval)
        detail = "; ".join(breakdown.violations) if breakdown.violations else None
        if breakdown.latency_ok is False:
            detail = (detail + "; " if detail else "") + "latency threshold exceeded"
        cases.append(
            BaselineCase(
                kind=kind,
                assignment=assignment,
                breakdown=breakdown,
                feasible=breakdown.feasible,
                objective_value=objective_value(breakdown, objective),
                detail=detail,
            )
        )

    for kind, obj, thr in (
        ("O_L", Objective.LATENCY, None),
        ("O_E", Objective.ENERGY, latency_threshold),
    ):
        allocation = solve(etfg, obj, thr, config)
        cases.append(_case_from_allocation(kind, allocation))
    return cases


def _case_from_allocation(kind: str, allocation: Allocation) -> BaselineCase:
    if allocation.assignment is None:
        proven = allocation.status is SolveStatus.INFEASIBLE
        return BaselineCase(
            kind=kind,
            assignment=None,
            breakdown=None,
            feasible=False if proven else None,
            objective_value=None,
            detail="no feasible allocation" if proven else "time limit reached without an incumbent",
        )
    detail = None
    if allocation.status is SolveStatus.FEASIBLE:
        detail = f"incumbent with gap {allocation.gap}"
    return BaselineCase(
        kind=kind,
        assignment=allocation.assignment,
        breakdown=allocation.breakdown,
        feasible=True,
        objective_value=allocation.objective_value,
        detail=detail,
    )


# --- report emission -------------------------------------------------------

def cases_to_rows(cases: list[BaselineCase]) -> list[dict]:
    rows = []
    for case in cases:
        row: dict = {"case": case.kind, "feasible": case.feasible}
        b = case.breakdown
        if b is None:
            row["detail"] = case.detail or ""
            rows.append(row)
            continue
        row["total_latency_s"] = float(b.total_latency)
        row["total_energy_J"] = float(b.total_energy)
        for role in ROLES:
            row[f"comp_latency_{role.value}_s"] = float(b.comp_latency[role])
        for k in ROLES:  # every channel of the system, in e < h < c order
            for l in ROLES:
                if (k, l) in b.comm_latency:
                    row[f"comm_latency_{k.value}{l.value}_s"] = float(b.comm_latency[(k, l)])
        for role in ROLES:
            row[f"device_energy_{role.value}_J"] = float(b.device_energy[role])
        for role in ROLES:
            row[f"memory_use_{role.value}_B"] = float(b.memory_use[role])
        row["detail"] = case.detail or ""
        rows.append(row)
    return rows


def cases_to_csv(cases: list[BaselineCase]) -> str:
    rows = cases_to_rows(cases)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def cases_to_json(cases: list[BaselineCase]) -> str:
    return json_text([c.to_dict() for c in cases])
