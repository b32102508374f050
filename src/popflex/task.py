"""Grounded planning tasks in finite-domain representation.

Variables take values from small finite domains; operators are ground and
carry a precondition, an effect, and a nonnegative cost.  The module also
reads the translator text format (SAS+ v3) and the usual one-action-per-line
plan files, and validates sequential plans by state progression.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

logger = logging.getLogger(__name__)


class Fact(NamedTuple):
    var: int
    val: int

    def __repr__(self) -> str:
        return f"({self.var}={self.val})"


# A partial state maps a subset of the variables to values.  A (full) state
# maps every variable.  Both are plain dicts throughout.
PartialState = dict[int, int]
State = dict[int, int]

# The facts an operator consumes, produces and deletes (see cons_prod_del).
Profile = tuple[frozenset[Fact], frozenset[Fact], frozenset[Fact]]


class LineSyntaxError(Exception):
    """Malformed text input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SasSyntaxError(LineSyntaxError):
    """Malformed SAS+ input."""


class Unsupported(Exception):
    """Well-formed input using a feature this toolkit rejects."""


class UnknownOperator(Exception):
    """A plan line names an operator the task does not define."""


class PlanSyntaxError(LineSyntaxError, UnknownOperator):
    """A plan line that is not '(name)' or names no operator of the task;
    callers that skip an UnknownOperator skip it too."""


class NotApplicable(Exception):
    """Operator precondition not satisfied in the given state."""

    def __init__(self, fact: Fact, op_name: str = ""):
        super().__init__(f"missing {fact} for {op_name!r}")
        self.fact = fact


@dataclass(frozen=True)
class Variable:
    name: str
    values: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class OperatorDef:
    name: str
    pre: tuple[Fact, ...]
    eff: tuple[Fact, ...]
    cost: int = 1

    def pre_map(self) -> PartialState:
        return {f.var: f.val for f in self.pre}

    def eff_map(self) -> PartialState:
        return {f.var: f.val for f in self.eff}


def make_operator(name: str, pre: Iterable[tuple[int, int]],
                  eff: Iterable[tuple[int, int]], cost: int = 1) -> OperatorDef:
    """Build an operator with canonically sorted condition tuples."""
    pre_facts = tuple(sorted(Fact(v, d) for v, d in dict(pre).items()))
    eff_facts = tuple(sorted(Fact(v, d) for v, d in dict(eff).items()))
    return OperatorDef(name, pre_facts, eff_facts, cost)


@dataclass
class PlanningTask:
    variables: list[Variable]
    operators: list[OperatorDef]
    init: State
    goal: PartialState
    metric: bool = True

    def __post_init__(self) -> None:
        self._by_name: dict[str, int] = {}
        for i, op in enumerate(self.operators):
            if op.name in self._by_name:
                raise ValueError(f"duplicate operator name {op.name!r}")
            self._by_name[op.name] = i
        self._profiles: dict[OperatorDef, Profile] = {}

    def profile(self, op: OperatorDef) -> Profile:
        """`cons_prod_del` of an operator over this task's domains, computed
        once per operator and task."""
        prof = self._profiles.get(op)
        if prof is None:
            prof = self._profiles[op] = cons_prod_del(op, self.domain_sizes())
        return prof

    def domain_size(self, var: int) -> int:
        return self.variables[var].size

    def domain_sizes(self) -> list[int]:
        return [v.size for v in self.variables]

    def operator_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownOperator(name) from None


@dataclass
class SequentialPlan:
    steps: list[int]

    def cost(self, task: PlanningTask) -> int:
        return sum(task.operators[i].cost for i in self.steps)

    def names(self, task: PlanningTask) -> list[str]:
        return [task.operators[i].name for i in self.steps]


@dataclass
class ValidationReport:
    valid: bool
    step: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


def cons_prod_del(op: OperatorDef, domain_sizes: list[int]) -> Profile:
    """Facts consumed, produced, and deleted by an operator.

    Consumed facts are the precondition; produced facts the effect.  A fact
    (v, d) is deleted when the operator sets v to some d' != d while either
    requiring v = d or leaving v unconstrained.  In the unconstrained case
    every alternative value of v counts as deleted, which deliberately
    overapproximates so no potential deleter is overlooked.
    """
    pre = op.pre_map()
    deleted = []
    for f in op.eff:
        old = pre.get(f.var)
        if old is None:
            deleted.extend(Fact(f.var, d) for d in range(domain_sizes[f.var])
                           if d != f.val)
        elif old != f.val:
            deleted.append(Fact(f.var, old))
    return frozenset(op.pre), frozenset(op.eff), frozenset(deleted)


def apply_op(op: OperatorDef, state: State) -> State:
    """Progress a full state through one operator."""
    for f in op.pre:
        if state.get(f.var) != f.val:
            raise NotApplicable(f, op.name)
    new_state = dict(state)
    for f in op.eff:
        new_state[f.var] = f.val
    return new_state


def validate_sequential(task: PlanningTask, plan: SequentialPlan) -> ValidationReport:
    """Check applicability of each step and goal satisfaction at the end."""
    state = dict(task.init)
    for i, op_idx in enumerate(plan.steps):
        op = task.operators[op_idx]
        try:
            state = apply_op(op, state)
        except NotApplicable as exc:
            return ValidationReport(False, step=i,
                                    reason=f"step {i} ({op.name}): {exc}")
    for var, val in sorted(task.goal.items()):
        if state.get(var) != val:
            return ValidationReport(False, step=len(plan.steps),
                                    reason=f"goal fact {Fact(var, val)} unsatisfied")
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# SAS+ v3 text format (translator output)

class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def error(self, message: str) -> SasSyntaxError:
        """An error at the line read last."""
        return SasSyntaxError(self.pos, message)

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise SasSyntaxError(self.pos + 1, "unexpected end of file")
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line

    def expect(self, token: str) -> None:
        line = self.next()
        if line != token:
            raise self.error(f"expected {token!r}, got {line!r}")

    def next_int(self, least: Optional[int] = None) -> int:
        line = self.next()
        try:
            n = int(line)
        except ValueError:
            raise self.error(f"expected integer, got {line!r}") from None
        if least is not None and n < least:
            raise self.error(f"expected at least {least}, got {n}")
        return n

    def next_ints(self, what: str) -> list[int]:
        line = self.next()
        try:
            return list(map(int, line.split()))
        except ValueError:
            raise self.error(f"{what}: expected integers, got {line!r}"
                             ) from None

    def next_fact(self, what: str, sizes: list[int]) -> tuple[int, int]:
        """A 'var val' line naming a value of a variable."""
        parts = self.next_ints(what)
        if len(parts) != 2:
            raise self.error(f"{what} needs 'var val'")
        var, val = parts
        if not (0 <= var < len(sizes) and 0 <= val < sizes[var]):
            raise self.error(f"{what} {Fact(var, val)} out of range")
        return var, val


def parse_sas(text: str | bytes) -> PlanningTask:
    """Parse translator output (SAS+ version 3) into a task.

    Prevail conditions fold into the precondition; pre/post pairs contribute
    the pre value (when not -1) to the precondition and the post value to the
    effect.  Axioms and conditional effects are rejected.  Any other
    malformed item raises SasSyntaxError at its line as it is read: a value
    outside its domain, a variable set twice in one operator or named twice
    in the goal, an empty effect, a negative cost, a repeated operator name.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    src = _Lines(text)
    src.expect("begin_version")
    version = src.next_int()
    if version != 3:
        raise Unsupported(f"SAS+ version {version}")
    src.expect("end_version")
    src.expect("begin_metric")
    metric = src.next_int()
    if metric not in (0, 1):
        raise src.error(f"metric must be 0 or 1, got {metric}")
    src.expect("end_metric")

    variables: list[Variable] = []
    for _ in range(src.next_int(0)):
        src.expect("begin_variable")
        name = src.next()
        if src.next_int() != -1:
            raise Unsupported("axioms")
        values = tuple(src.next() for _ in range(src.next_int(0)))
        src.expect("end_variable")
        variables.append(Variable(name, values))
    sizes = [v.size for v in variables]

    for _ in range(src.next_int(0)):  # mutex groups: checked and ignored
        src.expect("begin_mutex_group")
        for _ in range(src.next_int(0)):
            src.next_fact("mutex fact", sizes)
        src.expect("end_mutex_group")

    src.expect("begin_state")
    init: State = {}
    for var, size in enumerate(sizes):
        val = init[var] = src.next_int()
        if not 0 <= val < size:
            raise src.error(f"initial value {Fact(var, val)} out of range")
    src.expect("end_state")

    src.expect("begin_goal")
    goal: PartialState = {}
    for _ in range(src.next_int(0)):
        var, val = src.next_fact("goal fact", sizes)
        if var in goal:
            raise src.error(f"goal names variable {var} twice")
        goal[var] = val
    src.expect("end_goal")

    operators: list[OperatorDef] = []
    names: set[str] = set()
    for _ in range(src.next_int(0)):
        src.expect("begin_operator")
        name = src.next()
        if name in names:
            raise src.error(f"duplicate operator name {name!r}")
        names.add(name)
        twice = f"operator {name!r} sets variable {{}} twice"
        pre: dict[int, int] = {}
        eff: dict[int, int] = {}
        for _ in range(src.next_int(0)):  # prevail conditions
            var, val = src.next_fact("prevail condition", sizes)
            if var in pre:
                raise src.error(twice.format(var))
            pre[var] = val
        for _ in range(src.next_int(1)):  # pre/post effects, at least one
            parts = src.next_ints("effect")
            if parts and parts[0] != 0:
                raise Unsupported("conditional effects")
            if len(parts) != 4:
                raise src.error("effect needs '0 var pre post'")
            _, var, pre_val, post_val = parts
            if not (0 <= var < len(sizes) and 0 <= post_val < sizes[var]
                    and -1 <= pre_val < sizes[var]):
                raise src.error(f"effect {pre_val} -> {post_val} on variable "
                                f"{var} out of range")
            if var in pre or var in eff:
                raise src.error(twice.format(var))
            if pre_val != -1:
                pre[var] = pre_val
            eff[var] = post_val
        cost = src.next_int(0)
        src.expect("end_operator")
        operators.append(make_operator(name, pre.items(), eff.items(),
                                       cost if metric else 1))

    if src.next_int(0) != 0:
        raise Unsupported("axioms")
    return PlanningTask(variables, operators, init, goal, metric=metric == 1)


def emit_sas(task: PlanningTask) -> str:
    """Write a task back out in the SAS+ v3 text format."""
    out = ["begin_version", "3", "end_version",
           "begin_metric", "1" if task.metric else "0", "end_metric",
           str(len(task.variables))]
    for var in task.variables:
        out += ["begin_variable", var.name, "-1", str(var.size)]
        out += list(var.values)
        out.append("end_variable")
    out.append("0")  # no mutex groups
    out.append("begin_state")
    out += [str(task.init[v]) for v in range(len(task.variables))]
    out.append("end_state")
    out.append("begin_goal")
    out.append(str(len(task.goal)))
    out += [f"{v} {d}" for v, d in sorted(task.goal.items())]
    out.append("end_goal")
    out.append(str(len(task.operators)))
    for op in task.operators:
        pre = op.pre_map()
        eff = op.eff_map()
        prevail = sorted((v, d) for v, d in pre.items() if v not in eff)
        out += ["begin_operator", op.name, str(len(prevail))]
        out += [f"{v} {d}" for v, d in prevail]
        out.append(str(len(eff)))
        out += [f"0 {v} {pre.get(v, -1)} {d}" for v, d in sorted(eff.items())]
        out.append(str(op.cost))
        out.append("end_operator")
    out.append("0")  # no axioms
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# IPC plan files: one "(name args)" per line, ';' starts a comment

_PLAN_LINE = re.compile(r"^\((?P<body>[^)]*)\)\s*$")
_COST_COMMENT = re.compile(r";\s*cost\s*=\s*(\d+)")


def parse_plan(text: str | bytes, task: PlanningTask) -> SequentialPlan:
    """Parse a plan file against a task; costs are recomputed from the task.
    A line that is not '(name)', or names no operator of the task, raises
    PlanSyntaxError with its line number."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    steps: list[int] = []
    declared_cost: Optional[int] = None
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(";"):
            m = _COST_COMMENT.search(stripped)
            if m:
                declared_cost = int(m.group(1))
            continue
        m = _PLAN_LINE.match(stripped)
        if not m:
            raise PlanSyntaxError(line_no, f"expected '(operator)', "
                                           f"got {stripped!r}")
        name = " ".join(m.group("body").split())
        if name not in task._by_name:
            raise PlanSyntaxError(line_no, f"unknown operator {name!r}")
        steps.append(task._by_name[name])
    plan = SequentialPlan(steps)
    if declared_cost is not None and declared_cost != plan.cost(task):
        logger.warning("plan file declares cost %d but task computes %d; "
                       "using the task", declared_cost, plan.cost(task))
    return plan


def emit_plan(task: PlanningTask, plan: SequentialPlan) -> str:
    lines = [f"({name})" for name in plan.names(task)]
    lines.append(f"; cost = {plan.cost(task)} (general cost)")
    return "\n".join(lines) + "\n"
