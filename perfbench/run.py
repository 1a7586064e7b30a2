"""The repository's benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table5-byte --seed 0 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload

Each run builds its inputs from ``--seed``, sizes its work from
``--seconds``, checks the program's outputs against pinned or
independently computed references (outside the timed window), prints
a table of every metric by name and unit, writes the full report to
``perfbench/out/`` and prints one JSON object as its last line::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones, each by the name and unit ``BENCHMARK.json`` declares
for it.  The exit code is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from core import Metric, Tracer, summarize, tail_percentile  # noqa: E402

WORKLOADS = ("table5-byte", "lockstep-wide", "uds-keep-going",
             "service-open-loop")


def _module(name: str):
    from workloads import lockstep, service, table5, uds
    return {"table5-byte": table5, "lockstep-wide": lockstep,
            "uds-keep-going": uds, "service-open-loop": service}[name]


def host_info() -> dict:
    import numpy
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine()}


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``,
    in the order ``BENCHMARK.json`` lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def end_to_end(outcome, units: dict) -> list[Metric]:
    """Every declared end-to-end metric, from the workload's outcome."""
    value, samples, _ = outcome.throughput
    latencies = outcome.latencies
    pct, tail = tail_percentile(latencies)
    measured = {
        "setup_s": (summarize(outcome.setup)["median"], outcome.setup, ""),
        "throughput_per_s": (value, samples, ""),
        "latency_p50_s": (statistics.median(latencies), latencies, ""),
        "latency_tail_s": (tail, latencies,
                           f"p{pct:g} of {len(latencies)} samples"),
        "cpu_s": (outcome.cpu_s, [], ""),
        "peak_rss_mb": (outcome.peak_rss_mb, [], ""),
    }
    if set(measured) != set(units):
        raise ValueError(f"end-to-end metrics measured "
                         f"{sorted(measured)} but declared {sorted(units)}")
    return [Metric(name, unit, *measured[name]) for name, unit in
            units.items()]


def build_report(args, outcome, declared: dict) -> dict:
    gates = outcome.gates
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "host": host_info(),
        "correct": gates.correct, "attempted": gates.attempted,
        "failed": gates.failed, "fail_frac": gates.fail_frac,
        "failures": gates.failures[:50],
        "work_unit": outcome.throughput[2],
        "latency_item": outcome.latency_item,
        "config": outcome.config,
        "end_to_end": [m.to_dict() for m in
                       end_to_end(outcome, declared["end_to_end"])],
        "workload_metrics": [m.to_dict() for m in outcome.aliases],
    }
    if args.trace:
        units = declared["per_layer"]
        unknown = set(outcome.layers) - set(units)
        if unknown:
            raise ValueError(f"per-layer metrics not declared in "
                             f"BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload does not exercise reports 0.
        layers = {name: 0.0 for name in units}
        layers.update(outcome.layers)
        report["per_layer"] = [
            {"name": name, "unit": units[name], "value": value}
            for name, value in layers.items()]
    return report


def final_line(report: dict) -> dict:
    rows = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {row["name"]: {"value": row["value"],
                                      "unit": row["unit"]}
                        for row in rows}}


def print_table(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {int(report['trace'])}  "
          f"host {json.dumps(report['host'])}")
    print(f"  work unit: {report['work_unit']}; latency item: "
          f"{report['latency_item']}")
    print(f"  config: {json.dumps(report['config'])}")
    sections = [("end-to-end", report["end_to_end"]),
                ("workload", report["workload_metrics"])]
    if report["trace"]:
        sections.append(("per-layer", report["per_layer"]))
    for title, rows in sections:
        print(f"  {title}:")
        for row in rows:
            extra = ""
            if row.get("samples", 0) > 1:
                extra = (f"  (n={row['samples']} median={row['median']:.6g}"
                         f" q1={row['q1']:.6g} q3={row['q3']:.6g})")
            if row.get("note"):
                extra += f"  [{row['note']}]"
            print(f"    {row['name']:<30} {row['value']:>14.6g} "
                  f"{row['unit']}{extra}")
    print(f"  correct={report['correct']} attempted={report['attempted']} "
          f"failed={report['failed']} fail_frac={report['fail_frac']:.4g}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def run_one(args) -> int:
    from workloads.common import Context

    declared = declared_metrics()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(HERE / "pins.json", encoding="utf-8") as handle:
        pins = json.load(handle)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    tracer = Tracer()
    ctx = Context(seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), root=ROOT, scratch=scratch,
                  tracer=tracer, nproc=os.cpu_count() or 1, pins=pins)
    try:
        outcome = _module(args.workload).run(ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = build_report(args, outcome, declared)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    if args.trace:
        tracer.dump(out / f"{stem}-spans.json")
    print_table(report)
    print(json.dumps(final_line(report)), flush=True)
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, row in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = row
    print(json.dumps(combined), flush=True)
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark the CAN/UDS fuzzer end to end and by layer.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="host seconds of work a run is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
