"""The degpoly benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload realize-symmetric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Every query goes through ``degpoly.cli.main`` in this process, with inline
sequence or edge-list text and stdout captured, ``workers=1`` throughout.
A run answers the workload's query set in passes until ``--seconds`` is
used up (at least one pass) and checks every answer.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it spends half the
time untraced and half with every layer boundary wrapped (see
``tracing.py``), and prints the per-layer metrics of the traced half plus
the tracing overhead.  The last line of stdout is one JSON object.

Exit codes: 0 for a finished run (wrong answers are counted in the result,
not in the exit code), 1 when degpoly's sources or an argument are missing,
2 when the self-check finds a fault.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
SETUP_PROBES = 7

# name: unit.  The first three are the metrics of BENCHMARK.json.  The
# per-query figures are printed only: over ten runs their spread reached
# 0.22, near the largest bound BENCHMARK.json can hold (0.25), against 0.18
# for wall_s, a sum over the queries (see README.md, Baseline).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PRINTED = {**END_TO_END, "query_p50_s": "s", "query_max_s": "s"}


def load_cli():
    """Import degpoly from this checkout's sources, never from elsewhere."""
    if not (SRC / "degpoly" / "__init__.py").is_file():
        raise SystemExit(f"error: degpoly sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import degpoly.cli

    if Path(degpoly.cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: imported degpoly from {degpoly.cli.__file__}")
    return degpoly.cli


def load_queries(workload: str, seed: int, tiny: bool) -> list:
    return workloads.build(workload, seed, tiny, json.loads(GOLDEN.read_text()))


class Phase:
    """Timings and verdicts of the passes made in one phase of a run."""

    def __init__(self) -> None:
        self.pass_seconds: list[float] = []
        self.query_seconds: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def best(self) -> list[float]:
        """Each query's best time over the passes.  Contention from other
        tenants of the host comes in bursts and stretches of seconds; the
        best of dozens of short samples filters them out where a median, or
        the best of a few long samples, cannot."""
        return [min(t) for t in self.query_seconds.values()]


def answer(cli, query, tracer=None) -> tuple[float, int, str]:
    """One query through ``cli.main``: (seconds, exit code, stdout text)."""
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    buf = io.StringIO()
    gc.collect()
    with redirect_stdout(buf):
        start = time.perf_counter()
        code = main(query.argv)
        seconds = time.perf_counter() - start
    return seconds, code, buf.getvalue()


def run_query(cli, query, phase: Phase, tracer=None) -> float:
    phase.attempted += 1
    if tracer is not None:
        tracer.query = query.qid
    try:
        seconds, code, text = answer(cli, query, tracer)
        out = json.loads(text) if text.strip() else {}
        problems = query.check(code, out)
    except Exception as exc:  # a query that raises is a failed query, untimed
        seconds, problems = 0.0, [f"raised {type(exc).__name__}: {exc}"]
        text, out = "", {}
    else:
        phase.query_seconds.setdefault(query.qid, []).append(seconds)
    if problems:
        phase.failed += 1
        print(f"FAILED {query.qid}: {'; '.join(problems)}", file=sys.stderr)
    if tracer is not None:
        tracer.add("cli.output_bytes", len(text.encode()))
        tracer.add("realize.witnesses", len(out.get("witnesses", [])))
        if query.projection is not None:
            # The public enumerator on the query's projection: the labeled
            # graphs an --all search visits, timed outside the query.
            from degpoly import realizability

            start = time.perf_counter()
            count = sum(1 for _ in realizability.iter_labeled_graphs(query.projection))
            tracer.add("enumerate.seconds", time.perf_counter() - start)
            tracer.add("enumerate.graphs", count)
    return seconds


def run_phase(cli, queries: list, budget_s: float, tracer=None, before_pass=None) -> Phase:
    """Passes over the query set while another pass fits in ``budget_s``."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        phase.pass_seconds.append(sum(run_query(cli, q, phase, tracer) for q in queries))
        elapsed = time.perf_counter() - start
        if elapsed * (len(phase.pass_seconds) + 1) / len(phase.pass_seconds) > budget_s:
            return phase


def probe_argv(workload: str, seed: int, tiny: bool) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    return argv + ["--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])


def setup_probe(argv: list[str]) -> float:
    """Wall time of a fresh interpreter that imports degpoly, builds the
    workload's inputs and exits."""
    start = time.perf_counter()
    probe = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would round
    # the time; a blocking wait() returns at exit, and the timer bounds a
    # probe that hangs.
    watchdog = threading.Timer(120, probe.kill)
    watchdog.start()
    try:
        code = probe.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise SystemExit(f"error: set-up probe exited {code}")
    return time.perf_counter() - start


def measure(cli, queries: list, seconds: float, trace: bool, probe: list[str], spans_path=None):
    """One run over ``queries``; returns the result object and the lines of
    the human-readable report.  SETUP_PROBES set-up probes are spread evenly
    over the untraced phase, between passes, so that they meet the host's
    contention as the passes do; any still missing run after it."""
    setup_times: list[float] = []
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()

    def probe_when_due() -> None:
        if time.perf_counter() - start >= len(setup_times) * budget / SETUP_PROBES:
            setup_times.append(setup_probe(probe))

    untraced = run_phase(cli, queries, budget, before_pass=probe_when_due)
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(probe))
    best = untraced.best()
    phases = [untraced]
    if trace:
        with tracing.Tracer().installed() as tracer:
            traced = run_phase(cli, queries, seconds / 2, tracer)
        phases.append(traced)
        overhead = sum(traced.best()) - sum(best)
        layers = tracing.per_layer(tracer, len(traced.pass_seconds), overhead)
        if spans_path is not None:
            tracer.write(spans_path)
    end_to_end = {
        "wall_s": sum(best),
        "query_p50_s": statistics.median(best),
        "query_max_s": max(best),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)

    lines = [
        f"queries per pass: {len(queries)}; passes: "
        + ", ".join(str(len(p.pass_seconds)) for p in phases),
        f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})",
        "best query times (s): "
        + ", ".join(f"{q}={min(t):.4g}" for q, t in untraced.query_seconds.items()),
        "pass times (s): " + ", ".join(f"{t:.4g}" for t in untraced.pass_seconds),
    ]
    lines += [f"{name} = {end_to_end[name]:.6g} {unit}" for name, unit in PRINTED.items()]
    if trace:
        metrics = {n: {"value": v, "unit": tracing.PER_LAYER[n]} for n, v in layers.items()}
        lines += [f"{n} = {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    else:
        metrics = {n: {"value": end_to_end[n], "unit": u} for n, u in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def write_golden(cli) -> None:
    """Record verdict, exhaustive flag and class count of every realize query
    at the default seed (full and tiny inputs), after checking its witnesses."""
    golden: dict[str, dict] = {}
    for workload in ("realize-symmetric", "realize-irregular"):
        records = golden.setdefault(workload, {})
        for tiny in (False, True):
            for q in workloads.build(workload, 0, tiny):
                _, code, text = answer(cli, q)
                out = json.loads(text)
                problems = q.check(code, out)
                if problems:
                    raise SystemExit(f"error: {workload} {q.qid}: {problems}")
                record = {
                    "realizable": out["realizable"],
                    "exhaustive": out["exhaustive"],
                    "classes": out["nonisomorphic_count"],
                }
                if records.setdefault(q.golden_key(), record) != record:
                    raise SystemExit(f"error: {workload}: two answers for {q.golden_key()}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def self_check(cli) -> int:
    """Tiny inputs: every workload must answer correctly and print exactly the
    metrics BENCHMARK.json names, and a wrong golden answer must be caught."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    faults = []
    for workload in workloads.WORKLOADS:
        queries = load_queries(workload, 0, tiny=True)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = measure(cli, queries, 0.0, trace, probe_argv(workload, 0, True))
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            print(f"-- {workload} trace={int(trace)}", *lines, sep="\n")
            if got != expected:
                faults.append(f"{workload} trace={int(trace)}: metrics {got} != {expected}")
            if not result["correct"]:
                faults.append(f"{workload} trace={int(trace)}: wrong answers")
    queries = load_queries("realize-symmetric", 0, tiny=True)
    queries[0].expected = dict(queries[0].expected, classes=queries[0].expected["classes"] + 1)
    print("-- a wrong golden class count must fail (FAILED line expected)")
    result, lines = measure(cli, queries, 0.0, False, probe_argv("realize-symmetric", 0, True))
    print(*lines, sep="\n")
    if result["failed"] == 0:
        faults.append("a wrong golden answer did not raise failed_frac")
    for fault in faults:
        print(f"FAULT {fault}", file=sys.stderr)
    print("self-check " + ("failed" if faults else "passed"))
    return 2 if faults else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (args.self_check or args.write_golden or args.workload):
        parser.error("--workload is required")

    cli = load_cli()
    if args.self_check:
        return self_check(cli)
    if args.write_golden:
        write_golden(cli)
        return 0
    queries = load_queries(args.workload, args.seed, args.tiny)
    if args.setup_only:
        return 0
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json" if args.trace else None
    probe = probe_argv(args.workload, args.seed, args.tiny)
    result, lines = measure(cli, queries, args.seconds, bool(args.trace), probe, spans_path)
    print(f"workload {args.workload}, seed {args.seed}", *lines, sep="\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
