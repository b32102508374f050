"""Command-line front end.

Subcommands: validate, eog, block-deorder, fibs, reduce, flex, encode-mr,
lineate.  Exit codes: 0 success, 1 validation failure, 2 usage error
(which includes an input file that cannot be read and an output file that
cannot be written).
All reports are deterministic for a fixed seed and configuration; wall-clock
timings only appear with --with-timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .bdpo import (GOAL_ID, INIT_ID, BdpoPlan, block_deorder,
                   reason_sort_key)
from .eog import eog
from .fibs import (RCO, REDUCE_MODES, RFO, AcceptanceCriteria, FibsConfig,
                   fibs, reduce_plan)
from .maxsat import EncodingTooLarge, encode_mr
from .task import (PlanningTask, SequentialPlan, emit_plan, parse_plan,
                   parse_sas, validate_sequential)

PLANNER_CMD_ENV = "POPFLEX_PLANNER_CMD"


def _load(args) -> tuple[PlanningTask, SequentialPlan]:
    with open(args.task, encoding="utf-8") as fh:
        task = parse_sas(fh.read())
    with open(args.plan, encoding="utf-8") as fh:
        plan = parse_plan(fh.read(), task)
    return task, plan


class _Unwritable(Exception):
    """An output file that could not be written; `run` reports it as a
    usage error."""


@contextmanager
def _output(path: str):
    """The text file at `path`, open for writing."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise _Unwritable(exc) from None


def _write(path: Optional[str], text: str) -> None:
    if path:
        with _output(path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _config(args) -> FibsConfig:
    """The `fibs` flags as a config.  The planner command comes from
    --planner-cmd, or else from the PLANNER_CMD_ENV variable, the one
    variable that the package reads."""
    return FibsConfig(
        criteria=AcceptanceCriteria(args.criteria),
        reduce=args.reduce,
        subtask_time=args.subtask_time,
        max_plans=args.max_plans,
        max_expansions=args.max_expansions,
        time_limit=args.time_limit,
        seed=args.seed,
        planner_cmd=(args.planner_cmd or os.environ.get(PLANNER_CMD_ENV)
                     or None))


def _report_text(reports, with_timings: bool) -> str:
    return _json([r.to_dict(with_timings) for r in reports])


def _report_csv(reports, with_timings: bool) -> str:
    rows = [r.to_dict(with_timings) for r in reports]
    cols = sorted({k for row in rows for k in row})
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _pop_json(plan: BdpoPlan) -> dict:
    """The flat POP export of `eog -o`: the plan JSON without its blocks,
    which for a flat plan repeat its steps."""
    data = plan.to_json()
    del data["blocks"]
    return data


def _pop_dot(plan: BdpoPlan) -> str:
    """The flat POP Graphviz export of `eog --dot`: one node per step."""
    lines = ["digraph pop {", "  rankdir=TB;"]
    for s in sorted(plan.steps):
        shape = "box" if s not in (INIT_ID, GOAL_ID) else "ellipse"
        lines.append(f'  n{s} [label="{plan.steps[s].name}", shape={shape}];')
    for (a, b), rs in sorted(plan.reasons().items()):
        label = ", ".join(f"{r.kind}({r.fact.var}={r.fact.val})"
                          for r in sorted(rs, key=reason_sort_key))
        lines.append(f'  n{a} -> n{b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_plan_outputs(args, plan: BdpoPlan) -> None:
    if getattr(args, "out", None):
        _write(args.out, _json(plan.to_json()))
    if getattr(args, "dot", None):
        _write(args.dot, plan.to_dot())


def _usage_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def run(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="popflex",
        description="partial-order plan deordering, block substitution, "
                    "reduction, and reordering encodings")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--task", required=True, help="SAS+ task file")
        p.add_argument("--plan", required=True, help="IPC plan file")

    p = sub.add_parser("validate", help="check a sequential plan")
    add_common(p)

    p = sub.add_parser("eog", help="deorder a plan into a POP")
    add_common(p)
    p.add_argument("-o", "--out", help="POP JSON output")
    p.add_argument("--dot", help="Graphviz output")

    p = sub.add_parser("block-deorder", help="deorder with blocks")
    add_common(p)
    p.add_argument("-o", "--out", help="plan JSON output")
    p.add_argument("--dot", help="Graphviz output")

    p = sub.add_parser("fibs", help="run the full substitution pipeline")
    add_common(p)
    defaults = FibsConfig()
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--criteria", choices=[RFO, RCO],
                   default=defaults.criteria.mode)
    p.add_argument("--max-plans", type=int, default=defaults.max_plans,
                   dest="max_plans")
    p.add_argument("--subtask-time", type=float,
                   default=defaults.subtask_time, dest="subtask_time")
    p.add_argument("--max-expansions", type=int,
                   default=defaults.max_expansions, dest="max_expansions")
    p.add_argument("--time-limit", type=float, default=defaults.time_limit,
                   dest="time_limit", help="whole-run budget in seconds")
    p.add_argument("--planner-cmd", default=None,
                   help="external planner command, given {sas} and {plans}; "
                        "{{ and }} are literal braces "
                        f"(also {PLANNER_CMD_ENV})")
    p.add_argument("--reduce", choices=REDUCE_MODES, default=defaults.reduce)
    p.add_argument("--report", help="phase report JSON output")
    p.add_argument("--report-csv", help="phase report CSV output",
                   dest="report_csv")
    p.add_argument("-o", "--out", help="plan JSON output")
    p.add_argument("--dot", help="Graphviz output")
    p.add_argument("--with-timings", action="store_true", dest="with_timings")

    p = sub.add_parser("reduce", help="drop redundant blocks")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[m for m in REDUCE_MODES if m != "none"],
                   default="gj")
    p.add_argument("--skip-bd", action="store_true", dest="skip_bd",
                   help="reduce the plain deordered plan without blocks")
    p.add_argument("-o", "--out", help="plan JSON output")
    p.add_argument("--plan-out", dest="plan_out",
                   help="reduced sequential plan file")

    p = sub.add_parser("flex", help="print the deordered plan's flex")
    add_common(p)

    p = sub.add_parser("encode-mr", help="emit the reordering WCNF")
    add_common(p)
    p.add_argument("--mclcp", action="store_true")
    p.add_argument("-o", "--out", required=True, help="WCNF output file")
    p.add_argument("--catalog", help="variable catalog JSON output")

    p = sub.add_parser("lineate", help="emit one linearization of the POP")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="plan file output")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = _config(args) if args.command == "fibs" else None
    except ValueError as exc:
        return _usage_error(exc)
    try:
        task, plan = _load(args)
    except Exception as exc:
        return _usage_error(exc)
    try:
        return _execute(args, config, task, plan)
    except _Unwritable as exc:
        return _usage_error(exc)


def _execute(args, config: Optional[FibsConfig], task: PlanningTask,
             plan: SequentialPlan) -> int:
    """Run the parsed command on its loaded input; the required
    subparser admits no command but these."""
    report = validate_sequential(task, plan)
    if args.command == "validate":
        if report:
            print(f"valid: {len(plan.steps)} steps, cost {plan.cost(task)}")
            return 0
        print(f"invalid: {report.reason}", file=sys.stderr)
        return 1
    if not report:
        print(f"invalid input plan: {report.reason}", file=sys.stderr)
        return 1

    if args.command == "eog":
        pop = eog(task, plan)
        _write(args.out, _json(_pop_json(pop)))
        if args.dot:
            _write(args.dot, _pop_dot(pop))
        print(f"flex {pop.flex().value:.6f}")
        return 0

    if args.command == "block-deorder":
        bdp = block_deorder(eog(task, plan))
        _emit_plan_outputs(args, bdp)
        print(f"flex {bdp.flex().value:.6f}")
        return 0

    if args.command == "fibs":
        out, reports = fibs(task, plan, config)
        if args.report:
            _write(args.report, _report_text(reports, args.with_timings))
        if args.report_csv:
            _write(args.report_csv, _report_csv(reports, args.with_timings))
        _emit_plan_outputs(args, out)
        final = reports[-1]
        print(f"flex {final.flex_after:.6f} cost {final.cost_after}")
        return 0

    if args.command == "reduce":
        bdp = eog(task, plan)
        if not args.skip_bd:
            bdp = block_deorder(bdp)
        reduced = reduce_plan(bdp, args.mode)
        _emit_plan_outputs(args, reduced)
        if args.plan_out:
            _write(args.plan_out, emit_plan(task, reduced.linearize(args.seed)))
        print(f"cost {reduced.cost()} steps {len(reduced.real_steps())}")
        return 0

    if args.command == "flex":
        pop = eog(task, plan)
        print(f"{pop.flex().value:.6f}")
        return 0

    if args.command == "encode-mr":
        pop = eog(task, plan)
        try:
            wcnf, cat = encode_mr(task, pop, mclcp=args.mclcp)
        except EncodingTooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        with _output(args.out) as fh:
            wcnf.write(fh)
        if args.catalog:
            catalog = {
                "x": {str(s): v for s, v in cat.x.items()},
                "tau": {f"{a},{b}": v for (a, b), v in cat.tau.items()},
                "gamma": {f"{p},{f.var},{f.val},{c}": v
                          for (p, f, c), v in cat.gamma.items()},
            }
            _write(args.catalog, _json(catalog))
        print(f"wcnf: {wcnf.n_vars} vars, "
              f"{wcnf.n_hard} hard, {len(wcnf.soft)} soft")
        return 0

    pop = eog(task, plan)       # lineate
    seq = pop.linearize(args.seed)
    _write(getattr(args, "out", None), emit_plan(task, seq))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
