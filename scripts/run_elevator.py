#!/usr/bin/env python3
"""Walk the two-lift elevator example through the whole pipeline and print
the per-phase numbers."""

from popflex.corpus import elevator_plan, elevator_task
from popflex.fibs import FibsConfig, fibs


def main() -> None:
    task = elevator_task()
    plan = elevator_plan(task)
    out, reports = fibs(task, plan, FibsConfig(reduce="gj"))
    n0 = len(plan.steps)
    total0 = n0 * (n0 - 1) // 2
    print(f"input: {n0} steps, cost {plan.cost(task)}")
    for r in reports:
        print(f"{r.phase:7s} flex {r.flex_after:.4f}  "
              f"cost {r.cost_after:2d}  steps {r.steps_after:2d}  "
              f"ordered pairs {r.ordered_after:2d}  "
              f"(vs original {total0} pairs: {r.flex_vs_input:.4f})")
    print("final operators:")
    for sid in out.real_steps():
        print(f"  ({out.steps[sid].name})")


if __name__ == "__main__":
    main()
