"""The ehcopt benchmark.

    python3 perfbench/run.py --workload NAME [--seed 8] [--seconds 25] [--trace 0|1]

Workloads: ``design-requests``, ``exact-search``, ``large-1000`` (see
``workloads.py`` for what each stresses and why).  Each is a closed loop
with one client in this one process: the next request starts when the
previous one returned.  The run sets the workload up several times (the
median is ``setup_s``), makes sure every reference optimum is known
(uncached ones are computed by HiGHS in child processes before timing
starts), then serves whole passes over the workload's requests:
``--seconds`` over the workload's measured seconds per pass, rounded.
Times are reported at the reference host speed (see ``HostSpeed``); the
report also gives the wall-clock figures and the host's slowdown.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate, and the
last line holds the per-layer metrics derived from the spans.  The line
before it is a JSON report with the machine, seed, commit, the workload's
own metrics and a digest of the first pass's output files (time-limited
solves left out).  The
report and the spans are also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = reference.ROOT
COMMITTED_REFERENCES = HERE / "references.json"
WORKLOADS = ("design-requests", "exact-search", "large-1000")
SETUPS = 7
REFERENCE_WORKERS = 2
SGM_SHIFT_MS = 10.0
DEFAULT_SEED = 8  # the ROADMAP's baseline seed
# The calibration loop's best time on the 2-core Xeon (2.0 GHz) the
# benchmark was built on, in its fast state.  Timings are reported at that
# speed; see HostSpeed.
REFERENCE_CALIBRATION_S = 0.85e-3
LONG_REQUEST_S = 0.1  # long enough for the host to change speed during it


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ehcopt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every code path in seconds, for the benchmark's own test")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench",
                        help="inputs, outputs, reference cache and results")
    return parser.parse_args(argv)


def sgm_ms(seconds: list[float]) -> float:
    """Shifted geometric mean in ms, so that small instances count."""
    logs = [math.log(1e3 * s + SGM_SHIFT_MS) for s in seconds]
    return math.exp(sum(logs) / len(logs)) - SGM_SHIFT_MS


def calibration_s() -> float:
    """Best of two runs of a fixed standard-library loop doing what the
    program mostly does: Fraction arithmetic and dict and str work."""
    best = math.inf
    for _ in range(2):
        started = time.perf_counter()
        table, total = {}, Fraction(0)
        for j in range(300):
            total += Fraction(j, 7 + j % 5)
            table[(j, str(j))] = total
            table.get((j - 1, str(j - 1)))
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """How much slower the host runs now than the reference speed.

    A shared host changes speed for spells of seconds to minutes (up to
    about 2x on the machine this was built on, seen in wall and CPU time
    alike), which no number of passes averages out.  The calibration loop
    slows down with the program, and it is the same code on every commit,
    so a time divided by the slowdown measured just before it reads the
    same on slow and fast spells, and still moves with the program."""

    def __init__(self):
        self.samples: list[float] = []

    def slowdown(self) -> float:
        self.samples.append(calibration_s() / REFERENCE_CALIBRATION_S)
        return self.samples[-1]


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine(highs: str | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "scipy": scipy_version,
        "highs": highs,
    }


def resolve_references(requests, local_path: Path, scratch: Path) -> tuple[list[tuple[str, ...]], dict, str | None]:
    """Reference keys per request, and every reference they name.  Keys
    missing from the committed cache and from this workload and seed's
    local cache are solved by HiGHS in child processes; if that is
    impossible the run stops."""
    committed = reference.load_cache(COMMITTED_REFERENCES)
    local = reference.load_cache(local_path)
    known = {**committed["entries"], **local["entries"]}
    content: dict = {}
    keys, jobs = [], {}
    for req in requests:
        for path in (req.graph, req.system):
            if path not in content:
                content[path] = reference.canonical_json(path)
        request_keys = []
        for objective, cap in req.reference_jobs():
            key = reference.reference_key(content[req.graph], content[req.system], objective, cap)
            request_keys.append(key)
            if key not in known and key not in jobs:
                jobs[key] = {
                    "key": key, "graph": str(req.graph), "system": str(req.system),
                    "objective": objective, "cap": None if cap is None else str(cap),
                }
        keys.append(tuple(request_keys))
    highs = local["highs"] or committed["highs"]
    if jobs:
        # two child processes at most, each solving every other job
        workers = []
        for i in range(min(REFERENCE_WORKERS, len(jobs))):
            jobs_path, out_path = scratch / f"reference_jobs{i}.json", scratch / f"reference_out{i}.json"
            jobs_path.write_text(json.dumps(list(jobs.values())[i::REFERENCE_WORKERS]))
            command = [sys.executable, str(HERE / "reference.py"), str(jobs_path), str(out_path)]
            workers.append((subprocess.Popen(command), out_path))
        exit_codes = [proc.wait() for proc, _ in workers]  # wait for every child first
        if any(exit_codes):
            raise SystemExit(f"error: {len(jobs)} reference optima are not cached and could not be computed")
        for _, out_path in workers:
            computed = reference.load_cache(out_path)
            local["entries"].update(computed["entries"])
            local["highs"] = highs = computed["highs"]
        reference.save_cache(local_path, local)
        known.update(local["entries"])
    return keys, known, highs


class Measurement:
    """What one run observed, over all the passes it served."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[tuple[int, str, float]] = []  # (request index, kind, seconds at reference speed)
        self.wall: list[float] = []  # the same latencies, as measured
        self.pass_seconds: list[float] = []  # summed request latency per pass, at reference speed
        self.solves: list[dict] = []
        self.digest = hashlib.sha256()


def serve_pass(workloads, requests, keys, refs, order, out: Path, tracer, m: Measurement, digest: bool,
               host: HostSpeed, after_request) -> None:
    served = 0.0
    for idx in order:
        req = requests[idx]
        m.attempted += 1
        tracer.request = m.attempted
        slowdown = host.slowdown()
        try:
            with tracer.span("request"):
                started = time.perf_counter()
                result = workloads.serve(req, out / req.kind, tracer)
                latency = time.perf_counter() - started
            if latency > LONG_REQUEST_S:
                slowdown = (slowdown + host.slowdown()) / 2
            if req.time_limit is not None:
                # the search runs until the time limit: count the rest of
                # the request, and leave anytime quality to the ratios
                latency -= result["allocation"].stats.get("wall_time_s", 0.0)
            verdict = workloads.check(req, result, refs, keys[idx], tracer)
        except Exception as exc:  # a failing request is counted and the run goes on
            verdict = workloads.Verdict([f"raised {exc!r}"])
        after_request()
        if verdict.problems:
            m.failed += 1
            m.errors.append(f"{req.kind} {req.objectives} {req.graph.name}: {'; '.join(verdict.problems)}")
            continue
        m.wall.append(latency)
        latency /= slowdown
        served += latency
        m.latencies.append((idx, req.kind, latency))
        if digest:
            for part in workloads.digest_parts(req, result):
                m.digest.update(part.encode())
        if req.kind == "solve":
            m.solves.append({
                "solve_s": result["solve_s"],
                "slowdown": slowdown,
                "stats": result["allocation"].stats,
                "evaluate_s": verdict.evaluate_s,
                "gap": result["allocation"].gap or 0.0,
                "time_limited": req.time_limit is not None,
                "value_ratio": verdict.value_ratio,
                "bound_ratio": verdict.bound_ratio,
            })
    m.pass_seconds.append(served)


def workload_metrics(m: Measurement, setup_s: float, wall_setup_s: float, host: HostSpeed) -> dict:
    """The figures named for each workload, by name and unit; only those
    the workload's requests define.  Latencies here are every sample, at
    reference speed except where the name says wall."""
    passes = len(m.pass_seconds)
    seconds = sorted(s for _, _, s in m.latencies)
    out = {
        "setup_s": (setup_s, "s"),
        "wall_setup_s": (wall_setup_s, "s"),
        "host_slowdown": (statistics.median(host.samples), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "requests": (len(seconds), "count"),
        "failed_frac": (m.failed / m.attempted, "ratio"),
    }
    if seconds:
        out["request_p50_ms"] = (1e3 * statistics.median(seconds), "ms")
        out["wall_request_p50_ms"] = (1e3 * statistics.median(m.wall), "ms")
    if len(seconds) >= 2:  # read it with "requests": a full run gives over 1000
        out["request_p99_ms"] = (1e3 * statistics.quantiles(seconds, n=100)[98], "ms")
    exact = [s["solve_s"] / s["slowdown"] for s in m.solves if not s["time_limited"]]
    if exact:
        out["exact_total_s"] = (sum(exact) / passes, "s")
        out["exact_sgm_ms"] = (sgm_ms(exact), "ms")
    exports = [s for _, kind, s in m.latencies if kind == "export"]
    if exports:
        out["export_s"] = (sum(exports) / passes, "s")
    limited = [s for s in m.solves if s["time_limited"] and s["value_ratio"] is not None]
    if limited:
        out["anytime_wall_s"] = (statistics.fmean(s["solve_s"] for s in limited), "s")
        out["reported_gap"] = (statistics.fmean(s["gap"] for s in limited), "ratio")
        out["true_gap"] = (statistics.fmean(float(s["value_ratio"]) - 1 for s in limited), "ratio")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(m: Measurement, setup_s: float) -> dict:
    # each request's best latency over the run's passes: the machine slows
    # down for spells of seconds, which the minimum over passes spread in
    # time does not see
    best: dict[int, float] = {}
    for idx, _, s in m.latencies:
        best[idx] = min(s, best.get(idx, s))
    seconds = list(best.values())
    ratios = [s for s in m.solves if s["value_ratio"] is not None]
    values = {
        "setup_s": (setup_s, "s"),
        "request_p50_ms": (1e3 * statistics.median(seconds) if seconds else 0.0, "ms"),
        "request_sgm_ms": (sgm_ms(seconds) if seconds else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "value_ratio": (statistics.fmean(float(s["value_ratio"]) for s in ratios) if ratios else 0.0, "ratio"),
        "bound_ratio": (statistics.fmean(float(s["bound_ratio"]) for s in ratios) if ratios else 0.0, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(tracer, m: Measurement, traced_passes: int, overhead: float, generator_s: float) -> dict:
    self_time, count = tracer.self_times()
    counters = tracer.counters
    request_total = sum(s.duration for s in tracer.spans if s.name == "request")

    def mean_ms(name):
        return 1e3 * self_time[name] / count[name] if count[name] else 0.0

    def share(name):
        return self_time[name] / request_total

    def rate(counter, *names):
        busy = sum(self_time[n] for n in names)
        return counters[counter] / busy if busy else 0.0

    search = prep = 0.0
    nodes = 0
    routes = {"branch-and-bound": 0, "tree-dp": 0}
    pruned = {"pruned_by_bound": 0, "pruned_by_budget": 0, "pruned_by_threshold": 0}
    solves = m.solves
    for s in solves:
        stats = s["stats"]
        routes[stats["solver"]] += 1
        # tree-dp reports no wall time of its own: all of it counts as search
        searched = stats.get("wall_time_s", s["solve_s"] - s["evaluate_s"])
        search += searched
        prep += s["solve_s"] - searched - s["evaluate_s"]
        nodes += stats.get("nodes_explored", 0)
        for key in pruned:
            pruned[key] += stats.get(key, 0)
    bnb_search = sum(s["stats"]["wall_time_s"] for s in solves if "wall_time_s" in s["stats"])
    prunes = sum(pruned.values())
    bound_ratios = [float(s["bound_ratio"]) for s in solves if s["bound_ratio"] is not None]
    values = {
        "generator.s": (generator_s, "s"),
        "model.load_ms": (mean_ms("model.load"), "ms"),
        "etfg.transform_ms": (mean_ms("etfg.transform"), "ms"),
        "etfg.arcs_per_s": (rate("etfg.arcs", "etfg.transform"), "1/s"),
        "milp.build_model_share": (share("milp.build_model"), "ratio"),
        "milp.nonzeros_per_s": (rate("milp.nonzeros", "milp.build_model"), "1/s"),
        "mps.mps_share": (share("mps.mps"), "ratio"),
        "mps.lp_share": (share("mps.lp"), "ratio"),
        "mps.mb_per_s": (rate("mps.bytes", "mps.mps", "mps.lp") / 1e6, "MB/s"),
        "solver.prep_s": (prep / traced_passes, "s"),
        "solver.search_s": (search / traced_passes, "s"),
        "solver.nodes": (nodes / traced_passes, "count"),
        "solver.nodes_per_s": (nodes / bnb_search if bnb_search else 0.0, "1/s"),
        "solver.pruned_bound": (pruned["pruned_by_bound"] / traced_passes, "count"),
        "solver.pruned_budget": (pruned["pruned_by_budget"] / traced_passes, "count"),
        "solver.pruned_threshold": (pruned["pruned_by_threshold"] / traced_passes, "count"),
        "solver.prune_ratio": (prunes / nodes if nodes else 0.0, "ratio"),
        "solver.route_bnb": (routes["branch-and-bound"] / traced_passes, "count"),
        "solver.route_tree_dp": (routes["tree-dp"] / traced_passes, "count"),
        "solver.lower_bound_ratio": (statistics.fmean(bound_ratios) if bound_ratios else 0.0, "ratio"),
        "milp.evaluate_ms": (mean_ms("milp.evaluate"), "ms"),
        "cli.output_ms": (mean_ms("cli.output"), "ms"),
        "analysis.baseline_share": (share("analysis.baseline"), "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run(args) -> dict:
    run_started = time.perf_counter()
    reference.add_program_to_path()
    import workloads
    from tracing import NullTracer, Tracer

    name = f"{args.workload}-{args.size}-seed{args.seed}"
    work = args.workdir / name
    results = args.workdir / "results"
    results.mkdir(parents=True, exist_ok=True)

    host = HostSpeed()
    setup_times, wall_setup_times, generator_times = [], [], []

    def set_up() -> list:
        shutil.rmtree(work, ignore_errors=True)  # the previous outputs
        gc.collect()  # every set-up starts from the same heap, whatever ran before
        slowdown = host.slowdown()
        started = time.perf_counter()
        (work / "inputs").mkdir(parents=True)
        requests, generating = workloads.build(args.workload, args.size, args.seed, work / "inputs")
        for kind in ("solve", "baseline", "export"):
            (work / "out" / kind).mkdir(parents=True)
        workloads.warm_up(work / "warm-up")
        wall_setup_times.append(time.perf_counter() - started)
        setup_times.append(wall_setup_times[-1] / slowdown)
        generator_times.append(generating)
        return requests

    requests = set_up()

    started = time.perf_counter()
    (args.workdir / "references").mkdir(exist_ok=True)
    keys, refs, highs = resolve_references(requests, args.workdir / "references" / f"{name}.json", work)
    reference_s = time.perf_counter() - started

    # The number of passes follows from --seconds, not from the clock, so
    # that each request's best latency is taken over the same number of
    # samples in every run.
    passes = max(1, int(args.seconds / workloads.SIZES[args.size][args.workload]["pass_s"] + 0.5))
    if args.trace:
        passes = max(1, passes // 2)  # each pass is served twice, traced and untraced
    shuffle = args.workload == "design-requests"

    def order(pass_no: int) -> list[int]:
        indices = list(range(len(requests)))
        if shuffle:
            random.Random(f"{args.seed}:{pass_no}").shuffle(indices)
        return indices

    # a traced run alternates untraced and traced passes, swapping which
    # goes first in every other pair; the median ratio of paired pass times
    # is the tracing overhead
    untraced = Measurement()
    tracer = Tracer() if args.trace else NullTracer()
    m = Measurement()

    # The other set-ups (identical inputs) run between requests, evenly
    # spread over the run; their median is setup_s.
    total = passes * (2 if args.trace else 1) * len(requests)
    served = 0

    def after_request() -> None:
        nonlocal served
        served += 1
        if len(setup_times) < SETUPS and served * SETUPS >= len(setup_times) * total:
            set_up()

    for pass_no in range(passes):
        sides = [(tracer, m, pass_no == 0)]
        if args.trace:
            sides.insert(pass_no % 2, (NullTracer(), untraced, False))
        for side_tracer, measurement, digest in sides:
            serve_pass(workloads, requests, keys, refs, order(pass_no), work / "out", side_tracer, measurement, digest,
                       host, after_request)
        if not m.latencies and m.failed:
            break  # nothing succeeds; more passes only repeat the failures
    while len(setup_times) < SETUPS:
        set_up()
    m.attempted += untraced.attempted
    m.failed += untraced.failed
    m.errors += untraced.errors

    setup_s = statistics.median(setup_times)
    if args.trace:
        overhead = statistics.median(t / u for t, u in zip(m.pass_seconds, untraced.pass_seconds)) - 1
        metrics = per_layer(tracer, m, len(m.pass_seconds), overhead, statistics.median(generator_times))
        tracer.write(results / f"{name}.spans.jsonl")
    else:
        metrics = end_to_end(m, setup_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "machine": machine(highs),
        "pass_seconds": m.pass_seconds,
        "run_s": time.perf_counter() - run_started,
        "requests_per_pass": len(requests),
        "setup_s": setup_s,
        "reference_s": reference_s,
        "outputs_sha256": m.digest.hexdigest(),
        "workload_metrics": workload_metrics(m, setup_s, statistics.median(wall_setup_times), host),
        "errors": m.errors[:20],
    }
    (results / f"{name}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": metrics}, indent=1, sort_keys=True) + "\n"
    )
    return {
        "report": report,
        "result": {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    outcome = run(parse_args(argv))
    print(json.dumps({"report": outcome["report"]}, sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
