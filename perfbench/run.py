#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the wedgeshift command line.

    python3 perfbench/run.py --workload pipeline-iterate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` and driven through ``wedgeshift.cli.main`` in this one process and
thread, with the verb's standard output captured and checked by
``checker.py``.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (``tracer.py``).  A fuller report goes to
``perfbench/results/``.  perfbench/README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checker
import inputs
from tracer import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "wedgeshift"

WORKLOADS = ("pipeline-iterate", "pipeline-init-shift", "checks")
SETUP_REPEATS = 5

SIZES = {
    # What the benchmark measures.  A batch maps (n, k) to (size of the
    # random families, copies of the image and monomial kinds).  The sizes
    # are fixed, yet the time of one image still varies by a tenth or so
    # from copy to copy with the heights of its fractions, so each batch
    # holds several copies of each kind: 33 calls and two rounds in 25 s
    # for iterate, more for init-shift, whose calls are short.
    "full": {
        "pipeline-iterate": {(7, 3): (9, 5), (8, 3): (6, 5), (8, 4): (12, 5)},
        "pipeline-init-shift": {(7, 3): (9, 6), (8, 3): (6, 8), (8, 4): (12, 6)},
        "hm": ((8, 4), (9, 4)),
        "cross_k": 5,
        "oracle": {"trials": 200, "n": 4, "k": 2, "m": 3},
    },
    # Shapes small enough for the self-test.
    "toy": {
        "pipeline-iterate": {(5, 2): (3, 1), (6, 3): (4, 1)},
        "pipeline-init-shift": {(5, 2): (3, 1), (6, 3): (4, 1)},
        "hm": ((6, 3),),
        "cross_k": 3,
        "oracle": {"trials": 4, "n": 4, "k": 2, "m": 2},
    },
}

END_TO_END = {"setup_s": "s", "calls_per_s": "1/s", "peak_rss_mb": "MB"}

# pipeline_p50_ms is reported only for batches smaller than this: the median
# of a larger mixed batch jumps between call sizes.
P50_MAX_CALLS = 40


@dataclass(frozen=True)
class Op:
    """One CLI call of a round and the check of its output."""

    verb: str
    argv: tuple[str, ...]
    check: Callable[[str], tuple[list[str], dict]]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    # (index of the op in its round, verb, seconds inside the call, work counts)
    samples: list[tuple[int, str, float, dict]] = field(default_factory=list)

    def fail(self, op: Op, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(f"{' '.join(op.argv)}: {message}")


def make_ops(workload: str, seed: int, size: str, workdir: Path) -> list[Op]:
    """The calls of one round; for the pipelines this writes the inputs."""
    spec = SIZES[size]
    if workload == "checks":
        ops = [
            Op("hm-verify", ("hm-verify", "--n", str(n), "--k", str(k)),
               partial(checker.check_hm_verify, n=n, k=k))
            for n, k in spec["hm"]
        ]
        k = spec["cross_k"]
        ops.append(Op("example-cross", ("example-cross", "--k", str(k), "--check"),
                      partial(checker.check_example_cross, k=k)))
        o = spec["oracle"]
        argv = ("oracle-pluecker", "--random", str(o["trials"]), "--n", str(o["n"]),
                "--k", str(o["k"]), "--m", str(o["m"]), "--seed", str(seed))
        ops.append(Op("oracle-pluecker", argv,
                      partial(checker.check_oracle, n=o["n"], trials=o["trials"])))
        return ops
    # The default route is reached by leaving --route out, so renaming it
    # does not break the workload.
    route = ("--route", "iterate") if workload == "pipeline-iterate" else ()
    return [
        Op("pipeline", ("pipeline", inst.path) + route,
           partial(checker.check_pipeline, n=inst.n, k=inst.k, size=inst.size,
                   star=inst.kind == "star"))
        for inst in inputs.write_batch(seed, spec[workload], workdir)
    ]


def import_package():
    """Import the package afresh, so every run of set-up pays for its import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def call(main, argv) -> tuple[float, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except Exception as exc:  # a traceback is a failed call, not a crash of the benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_round(main, ops: list[Op], tally: Tally, caller=call) -> None:
    for index, op in enumerate(ops):
        dt, rc, out, err = caller(main, op.argv)
        tally.attempted += 1
        if rc != 0:
            tally.fail(op, f"exit {rc}: {err.strip()[-300:]}", wrong=False)
            continue
        try:
            problems, work = op.check(out)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # malformed output
            problems, work = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
        if problems:
            tally.fail(op, "; ".join(problems[:5]), wrong=True)
            continue
        tally.samples.append((index, op.verb, dt, work))


def timed_rounds(main, ops: list[Op], seconds: float, tally: Tally) -> list[float]:
    """Whole rounds until `seconds` have passed; the wall time of each."""
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        run_round(main, ops, tally)
        walls.append(time.perf_counter() - t)
    return walls


def op_medians(tally: Tally) -> list[tuple[str, float, dict]]:
    """(verb, median seconds, work counts) of each op that completed; the
    median over rounds keeps a burst of noise in one round out of the figure."""
    by_op: dict[int, list] = {}
    for index, verb, dt, work in tally.samples:
        by_op.setdefault(index, [verb, [], work])[1].append(dt)
    return [(verb, statistics.median(times), work) for verb, times, work in by_op.values()]


def end_to_end(setup_times: list[float], tally: Tally) -> dict[str, float]:
    medians = op_medians(tally)
    busy = sum(dt for _, dt, _ in medians)
    return {
        "setup_s": statistics.median(setup_times),
        "calls_per_s": len(medians) / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_verb(tally: Tally) -> dict[str, float]:
    """The figures of each verb, from the median time of each of its calls."""
    by_verb: dict[str, list[tuple[float, dict]]] = {}
    for verb, dt, work in op_medians(tally):
        by_verb.setdefault(verb, []).append((dt, work))
    out = {}
    for verb, rows in by_verb.items():
        busy = sum(dt for dt, _ in rows)
        if verb == "pipeline":
            out["pipeline_per_s"] = len(rows) / busy
            if len(rows) < P50_MAX_CALLS:
                out["pipeline_p50_ms"] = 1000 * statistics.median(dt for dt, _ in rows)
        elif verb == "hm-verify":
            out["hm_families_per_s"] = sum(w["families"] for _, w in rows) / busy
        elif verb == "example-cross":
            out["example_cross_s"] = busy / len(rows)
        elif verb == "oracle-pluecker":
            out["oracle_pairs_per_s"] = sum(w["pairs"] for _, w in rows) / busy
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, size: str = "full") -> tuple[dict, Tracer | None]:
    """Set up, measure and check one workload: the report and, for a traced
    run, the tracer holding its spans."""
    tally = Tally()
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "size": size}
    tracer = None
    if not trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cli = import_package()
            ops = make_ops(workload, seed, size, workdir)
            setup_times.append(time.perf_counter() - start)
        walls = timed_rounds(cli.main, ops, seconds, tally)
        metrics = end_to_end(setup_times, tally)
        units = END_TO_END
        report["setup_times_s"] = setup_times
    else:
        cli = import_package()
        tracer = Tracer()
        with tracer.installed():
            ops = tracer.phase("setup", make_ops, workload, seed, size, workdir)
        walls = timed_rounds(cli.main, ops, seconds, tally)
        traced = Tally()
        traced_call = lambda main, argv: tracer.phase("cli." + argv[0], call, main, argv)  # noqa: E731
        with tracer.installed():
            tracer.phase("round", run_round, cli.main, ops, traced, traced_call)
        wall = tracer.layers["setup"].busy_s + tracer.layers["round"].busy_s
        metrics = tracer.metrics(wall)
        units = metric_units()
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.wrong += traced.wrong
        tally.problems += traced.problems
    report.update(
        attempted=tally.attempted, failed=tally.failed, correct=tally.wrong == 0,
        problems=tally.problems, rounds=len(walls), round_walls_s=walls,
        per_verb=per_verb(tally), metrics=metrics, units=units,
    )
    return report, tracer


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp() -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "src_lines": lines, "commit": git_commit()}


def result_line(report: dict) -> str:
    metrics = {
        name: {"value": report["metrics"][name], "unit": unit}
        for name, unit in report["units"].items()
    }
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"no package source at {SRC / PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"stamp": stamp(), **report}
    (results / f"{name}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(results / f"{name}.spans.jsonl.gz", report)
    for problem in report["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": report["stamp"], "per_verb": report["per_verb"],
                      "rounds": report["rounds"],
                      "report": str((results / f"{name}.json").relative_to(ROOT))}))
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
