"""Command-line interface.

Subcommands mirror the pipeline stages: ``transform`` (expand a task
graph), ``solve`` (optimal allocation), ``baseline`` (extreme cases vs.
optimum report), ``generate`` (random benchmark), ``export`` (MPS/LP
files), and ``stats`` (model size report).

Exit codes: 0 success, 2 validation/input error, 3 proven infeasible,
4 time limit reached (incumbent with gap reported).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, presets
from .etfg import etfg_to_dict, etfg_to_dot, transform
from .generator import (
    GenerationError,
    GenSpec,
    ParamSpec,
    default_param_spec,
    generate_tfg,
    structure_stats,
    synthesize_params,
)
from .milp import Objective, build_model, model_stats
from .model import (
    GraphValidationError,
    json_text,
    load_system_model,
    load_task_graph,
    make_system_model,
    read_json,
    task_graph_to_dict,
)
from .mps import model_to_lp, model_to_mps
from .solver import SolveConfig, SolveStatus, solve
from .units import decimal_fraction, parse_quantity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_LIMIT = 4


class CliError(ValueError):
    """A request the command line cannot run; it exits 2 with the message."""


def _load_system(config: str, profile: str | None):
    if config in presets.CONFIGURATIONS:
        return presets.system_model(config, profile or "run1")
    system = load_system_model(config)
    if profile is not None:
        system = make_system_model(list(system.devices.values()), presets.channels(profile))
    return system


def _load_etfg(args):
    """The task graph ``args.tfg`` expanded on the ``--config`` system;
    ``transform`` refuses an invalid graph."""
    graph = load_task_graph(args.tfg)
    system = _load_system(args.config, args.channel_profile)
    try:
        return transform(graph, system)
    except GraphValidationError as exc:
        raise CliError(f"invalid task graph: {exc}") from None


def _threshold(args, objective: Objective) -> Fraction | None:
    """The latency cap, which only the energy objective has: ``--lthr``
    or the default.  ``--lthr`` with the latency objective, or not above
    zero, is an error."""
    if args.lthr is None:
        return presets.DEFAULT_LATENCY_THRESHOLD if objective is Objective.ENERGY else None
    if objective is not Objective.ENERGY:
        raise CliError("--lthr caps latency under --objective energy; it has no meaning with --objective latency")
    threshold = parse_quantity(args.lthr, "time")
    if threshold <= 0:
        raise CliError(f"--lthr must be > 0, got {args.lthr}")
    return threshold


def _write(args, texts: dict[str, str]) -> None:
    """Make the ``--out`` directory, write each named text into it and
    name each file written.  Every command formats all of its texts
    before it calls this, so an output that cannot be formatted leaves
    no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
        print(f"wrote {out / name}")


def cmd_transform(args) -> int:
    etfg = _load_etfg(args)
    texts = {"etfg.json": json_text(etfg_to_dict(etfg)), "etfg.dot": etfg_to_dot(etfg)}
    print(f"expanded {len(etfg.graph.tasks)} tasks / {len(etfg.graph.arcs)} arcs "
          f"-> {etfg.node_count} candidate nodes / {etfg.arc_count} arcs")
    _write(args, texts)
    return EXIT_OK


def cmd_solve(args) -> int:
    etfg = _load_etfg(args)
    objective = Objective(args.objective)
    threshold = _threshold(args, objective)
    config = SolveConfig(time_limit=args.time_limit)
    allocation = solve(etfg, objective, threshold, config, method=args.solver)
    texts = {"allocation.json": json_text(allocation.to_dict()), "solver_stats.json": json_text(allocation.stats)}
    print(f"status: {allocation.status.value}")
    if allocation.objective_value is not None:
        print(f"{objective.value}: {float(allocation.objective_value):.6g}")
    if allocation.gap is not None:
        print(f"gap: {allocation.gap:.4f}")
    elif allocation.status is SolveStatus.FEASIBLE:
        print("time limit reached without an incumbent")
    _write(args, texts)
    if allocation.status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    if allocation.status is SolveStatus.FEASIBLE:
        return EXIT_TIME_LIMIT
    return EXIT_OK


def cmd_baseline(args) -> int:
    etfg = _load_etfg(args)
    objective = Objective(args.objective)
    threshold = _threshold(args, Objective.ENERGY)
    config = SolveConfig(time_limit=args.time_limit)
    cases = analysis.run_baselines(etfg, objective, threshold, config)
    texts = {"baseline.csv": analysis.cases_to_csv(cases), "baseline.json": analysis.cases_to_json(cases)}
    for case in cases:
        value = "-" if case.objective_value is None else f"{float(case.objective_value):.6g}"
        flag = {True: "feasible", False: "INFEASIBLE", None: "UNKNOWN"}[case.feasible]
        if case.detail:
            flag += f" ({case.detail})"
        print(f"{case.kind:>4}: {value:>12}  {flag}")
    _write(args, texts)
    return EXIT_OK


def _fraction_flag(value: float, flag: str) -> Fraction:
    if not math.isfinite(value):
        raise CliError(f"{flag} must be a finite number, got {value}")
    return decimal_fraction(value)


def cmd_generate(args) -> int:
    spec = GenSpec(
        structure=args.structure,
        node_count=args.nodes,
        max_in_degree=args.max_in_degree,
        max_out_degree=args.max_out_degree,
        fixed_edge_fraction=_fraction_flag(args.fixed_edge, "--fixed-edge"),
        fixed_hub_fraction=_fraction_flag(args.fixed_hub, "--fixed-hub"),
        seed=args.seed,
    )
    system = _load_system(args.config, args.channel_profile)
    if args.params is not None:
        document = read_json(args.params, "params", GenerationError)
        pspec = ParamSpec.from_dict(document, f"params file {args.params}")
    else:
        config_name = args.config if args.config in presets.CONFIGURATIONS else "C1"
        pspec = default_param_spec(config_name)
    structure = generate_tfg(spec)
    graph = synthesize_params(structure, pspec, system, spec.seed)
    stats = structure_stats(graph)
    meta = {"schema": 1, "genspec": spec.to_dict(), "paramspec": pspec.to_dict(), "statistics": stats}
    texts = {"tfg.json": json_text(task_graph_to_dict(graph)), "meta.json": json_text(meta)}
    print(f"generated {stats['nodes']} tasks / {stats['arcs']} arcs "
          f"(depth {stats['depth']}, max width {stats['max_width']})")
    _write(args, texts)
    return EXIT_OK


def cmd_export(args) -> int:
    etfg = _load_etfg(args)
    objective = Objective(args.objective)
    model = build_model(etfg, objective, _threshold(args, objective))
    texts = {}
    if args.format in ("mps", "both"):
        texts["model.mps"] = model_to_mps(model)
    if args.format in ("lp", "both"):
        texts["model.lp"] = model_to_lp(model)
    print(f"{model.num_variables} variables, {len(model.rows)} rows")
    _write(args, texts)
    return EXIT_OK


def cmd_stats(args) -> int:
    etfg = _load_etfg(args)
    objective = Objective(args.objective)
    model = build_model(etfg, objective, _threshold(args, objective))
    text = json_text(model_stats(model))
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args, {"model_stats.json": text})
    return EXIT_OK


def _add_common(parser, tfg=True):
    if tfg:
        parser.add_argument("tfg", help="task graph JSON file")
    parser.add_argument(
        "--config",
        default="C1",
        help="device configuration: C1, C2, C3, or a system-model JSON path",
    )
    parser.add_argument(
        "--channel-profile",
        choices=sorted(presets.CHANNEL_PROFILES),
        default=None,
        help="override channel parameters with a named profile",
    )


def _add_model_flags(parser):
    parser.add_argument("--objective", choices=["latency", "energy"], default="latency")
    parser.add_argument("--lthr", default=None, help="latency threshold, e.g. 8000ms (energy objective)")


def _add_solver_flags(parser):
    _add_model_flags(parser)
    parser.add_argument("--time-limit", type=float, default=None, help="solver wall-time limit in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehcopt",
        description="Design-time task allocation for edge/hub/cloud applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="expand a task graph over its candidate devices")
    _add_common(p)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("solve", help="compute an optimal allocation")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument(
        "--solver",
        choices=["auto", "bruteforce"],
        default="auto",
        help="auto: branch and bound, after the Lagrangian dual when timed or without budgets or a cap; "
        "bruteforce: enumerate every assignment (small graphs, no time limit)",
    )
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("baseline", help="extreme allocations vs. optimum report")
    _add_common(p)
    _add_solver_flags(p)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("generate", help="generate a random benchmark task graph")
    _add_common(p, tfg=False)
    p.add_argument("--structure", choices=["parallel", "serial", "mixed"], required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--max-in-degree", type=int, default=3)
    p.add_argument("--max-out-degree", type=int, default=3)
    p.add_argument("--fixed-edge", type=float, default=0.0, help="fraction of tasks pinned to the edge device")
    p.add_argument("--fixed-hub", type=float, default=0.0, help="fraction of tasks pinned to the hub device")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default=None, help="parameter-synthesis ranges JSON")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export", help="write the allocation model as MPS/LP")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--format", choices=["mps", "lp", "both"], default="both")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("stats", help="model size statistics")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad argument and 0 after --help
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CliError and every load error are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:  # a sum or product of in-range inputs that a double cannot hold
        print(f"error: a value computed from the inputs is beyond the range of a double ({exc})", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
