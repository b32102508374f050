"""Flat partial-order plans over uniquely identified operator occurrences.

A flat plan is a BdpoPlan whose roots are all primitive blocks, each
numbered by the id of its step, so the step-level causal links and
demotion/promotion commitments are the root-level ones.  Closure, threats,
validation, flex, cost and linearizations are the BdpoPlan ones; only the
flat construction and the flat JSON and Graphviz exports, which have no
blocks, live here.
"""

from __future__ import annotations

from typing import Optional

from .bdpo import GOAL_ID, INIT_ID, BdpoPlan, reason_sort_key
from .task import OperatorDef, PartialState, State, make_operator


def synthetic_operators(init: State, goal: PartialState
                        ) -> tuple[OperatorDef, OperatorDef]:
    """The init step, which produces the initial state, and the goal step,
    which consumes the goal."""
    return (make_operator("<init>", [], sorted(init.items()), 0),
            make_operator("<goal>", sorted(goal.items()), [], 0))


class PartialOrderPlan(BdpoPlan):
    """Flat POP: steps, causal links, promotion/demotion commitments."""

    def add_step(self, op: OperatorDef, step_id: Optional[int] = None) -> int:
        """Add a step and its root block, both numbered `step_id` (by
        default the next free id)."""
        if step_id is None:
            step_id = self.next_step_id
        self.next_step_id = self.next_block_id = max(self.next_step_id,
                                                     step_id + 1)
        self.steps[step_id] = op
        self.roots.add(self.make_primitive(step_id, step_id))
        return step_id

    def install_synthetics(self) -> None:
        init_op, goal_op = synthetic_operators(self.task.init, self.task.goal)
        self.add_step(init_op, INIT_ID)
        self.add_step(goal_op, GOAL_ID)

    def to_json(self) -> dict:
        data = super().to_json()
        del data["blocks"]
        return data

    def to_dot(self) -> str:
        reasons = self.reasons()
        lines = ["digraph pop {", "  rankdir=TB;"]
        for s in sorted(self.steps):
            shape = "box" if s not in (INIT_ID, GOAL_ID) else "ellipse"
            lines.append(f'  n{s} [label="{self.steps[s].name}", shape={shape}];')
        for (a, b), rs in sorted(reasons.items()):
            label = ", ".join(f"{r.kind}({r.fact.var}={r.fact.val})"
                              for r in sorted(rs, key=reason_sort_key))
            lines.append(f'  n{a} -> n{b} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
