"""Batched multi-world throughput benchmark: lockstep vs scalar kernel.

Runs the ``bench_throughput`` random-fuzz workload (UnlockTestbench,
full-default :class:`FuzzConfig`, 1 ms interval) two ways and compares
aggregate frames per wall second:

- **scalar**: one world at a time through the ordinary event-kernel
  campaign loop -- the per-shard cost :class:`ShardedCampaign` pays
  today;
- **batched**: N seeded worlds advanced in lockstep by
  :class:`repro.fuzz.batch.BatchCampaign` over structure-of-arrays
  state.

The comparison is only meaningful because the batch engine's contract
is *bit identity*, so the benchmark also proves it: every batched
world's ``FuzzResult.to_dict()`` is compared against the scalar run of
the same seed and the verdicts are recorded world-by-world in the
output JSON.  A speedup bought by drifting off the scalar semantics
would show up here as a parity failure, not a win.

Two more sections price the shapes a wide batch hides:

- **width curve**: the same workload at 1, 4, 16, 64 and 256 live
  worlds, each against the scalar kernel in the same process (CPU
  seconds, so a busy host moves both sides alike);
- **Table V**: the paper's first three ``byte`` trials through
  :class:`~repro.testbench.experiment.UnlockExperiment` (one world
  each, stopping at its unlock) against the scalar reference.

The gate fails on any parity break or fallback, on width 1 below 1x,
or on the main run below 10x.

Usage::

    PYTHONPATH=src python benchmarks/bench_batch.py \
        --frames 50000 --worlds 128 --output BENCH_batch.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro.fuzz.batch import BatchCampaign
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator, TargetedFrameGenerator
from repro.sim.clock import MS
from repro.testbench.bench import UnlockTestbench
from repro.testbench.experiment import UnlockExperiment

#: Id pool for the targeted-generator variant: the bus's known
#: identifiers, the narrowing a real campaign applies after listening.
TARGETED_IDS = (0x215, 0x3A5, 0x100)

#: Live widths of the width curve, frames per world there, and the
#: seeds priced on the scalar kernel (every width batches seed 0 up,
#: so each is parity-checked against the first min(width, 4)).
CURVE_WIDTHS = (1, 4, 16, 64, 256)
CURVE_FRAMES = 20_000
CURVE_SCALAR_SAMPLE = 4

#: Table V trials run both ways: the paper's "Single id and byte" row.
TABLE5_TRIALS = 3


def build_campaign(seed: int, frames: int,
                   targeted: bool = False) -> FuzzCampaign:
    """One seeded world of the bench_throughput workload."""
    bench = UnlockTestbench(seed=seed)
    bench.power_on(settle_seconds=0.5)
    adapter = bench.attacker_adapter()
    if targeted:
        generator = TargetedFrameGenerator(TARGETED_IDS, FuzzConfig(),
                                           random.Random(20180625 + seed))
    else:
        generator = RandomFrameGenerator(FuzzConfig(),
                                         random.Random(20180625 + seed))
    campaign = FuzzCampaign(bench.sim, adapter, generator,
                            limits=CampaignLimits(max_frames=frames),
                            interval=1 * MS, name=f"bench-{seed}")
    campaign.bench = bench
    return campaign


def run_scalar(seeds, frames, targeted=False):
    """Each world through the ordinary kernel; returns (dicts, f/s)."""
    results = []
    wall = 0.0
    for seed in seeds:
        campaign = build_campaign(seed, frames, targeted)
        start = time.perf_counter()
        result = campaign.run()
        wall += time.perf_counter() - start
        results.append(result.to_dict())
    total = sum(r["frames_sent"] for r in results)
    return results, total / wall, wall


def run_batched(seeds, frames, targeted=False):
    """All worlds in one lockstep batch; returns (dicts, f/s, reasons)."""
    batch = BatchCampaign([build_campaign(seed, frames, targeted)
                           for seed in seeds])
    start = time.perf_counter()
    results = batch.run()
    wall = time.perf_counter() - start
    dicts = [result.to_dict() for result in results]
    total = sum(r["frames_sent"] for r in dicts)
    return dicts, total / wall, wall, dict(batch.fallback_reasons)


def cpu_timed(call):
    """``(call(), CPU seconds it took)``."""
    start = time.process_time()
    value = call()
    return value, time.process_time() - start


def width_curve():
    """Batched vs scalar frames per CPU second at each live width."""
    seeds = list(range(CURVE_SCALAR_SAMPLE))
    scalar, scalar_cpu = cpu_timed(lambda: [
        build_campaign(seed, CURVE_FRAMES).run().to_dict()
        for seed in seeds])
    scalar_fps = sum(r["frames_sent"] for r in scalar) / scalar_cpu
    curve = []
    for width in CURVE_WIDTHS:
        batch = BatchCampaign([build_campaign(seed, CURVE_FRAMES)
                               for seed in range(width)])
        results, cpu = cpu_timed(batch.run)
        dicts = [result.to_dict() for result in results]
        parity = [dicts[i] == scalar[i]
                  for i in range(min(width, len(seeds)))]
        fps = sum(r["frames_sent"] for r in dicts) / cpu
        curve.append({"worlds": width,
                      "batched_frames_per_cpu_second": fps,
                      "scalar_frames_per_cpu_second": scalar_fps,
                      "speedup": fps / scalar_fps,
                      "fallback_reasons": dict(batch.fallback_reasons),
                      "world_by_world_identical": parity,
                      "all_identical": all(parity)})
        print(f"  {width:>3} worlds: {fps / scalar_fps:6.1f}x, "
              f"parity {sum(parity)}/{len(parity)}")
    return curve


def table5_trials():
    """The first Table V byte trials, lockstep engine vs scalar."""
    experiment = UnlockExperiment(check_mode="byte", seed=0)
    rows = []
    for trial in range(TABLE5_TRIALS):
        (outcome, result), batched_cpu = cpu_timed(
            lambda: experiment.trial_result(trial))
        (want, want_result), scalar_cpu = cpu_timed(
            lambda: experiment.trial_result(trial, scalar=True))
        identical = (outcome == want
                     and result.to_dict() == want_result.to_dict())
        rows.append({"trial": trial,
                     "seconds_to_unlock": outcome.seconds_to_unlock,
                     "frames": outcome.frames_sent,
                     "batched_cpu_seconds": batched_cpu,
                     "scalar_cpu_seconds": scalar_cpu,
                     "speedup": scalar_cpu / batched_cpu,
                     "fallback_reasons": result.fallback_reasons,
                     "identical": identical})
        print(f"  trial {trial}: unlock at {outcome.seconds_to_unlock} s, "
              f"{scalar_cpu / batched_cpu:.1f}x, identical={identical}")
    return rows


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=positive_int, default=50_000,
                        help="frame limit per world")
    parser.add_argument("--worlds", type=positive_int, default=128,
                        help="batch width (number of lockstep worlds)")
    parser.add_argument("--scalar-sample", type=positive_int, default=8,
                        help="worlds run through the scalar kernel to "
                             "price the baseline and check parity (the "
                             "full width would take minutes; the first "
                             "K seeds are representative because every "
                             "world runs the identical workload)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report JSON here")
    args = parser.parse_args(argv)

    sample = min(args.scalar_sample, args.worlds)
    seeds = list(range(args.worlds))

    print(f"scalar baseline: {sample} worlds x {args.frames} frames ...")
    scalar_dicts, scalar_fps, scalar_wall = run_scalar(
        seeds[:sample], args.frames)
    print(f"  {scalar_fps:,.0f} frames/s ({scalar_wall:.2f} s wall)")

    print(f"batched: {args.worlds} worlds x {args.frames} frames ...")
    batch_dicts, batch_fps, batch_wall, fallbacks = run_batched(
        seeds, args.frames)
    print(f"  {batch_fps:,.0f} frames/s ({batch_wall:.2f} s wall)")

    parity = [batch_dicts[i] == scalar_dicts[i] for i in range(sample)]
    speedup = batch_fps / scalar_fps
    print(f"speedup: {speedup:.1f}x, parity {sum(parity)}/{sample}, "
          f"fallbacks: {fallbacks or 'none'}")

    # Targeted-generator variant: the admission prover must take these
    # worlds on the lockstep engine (zero fallbacks) with the same
    # bit-identity, at a fraction of the main run's size.
    targeted_worlds = min(16, args.worlds)
    targeted_frames = min(10_000, args.frames)
    targeted_sample = min(2, targeted_worlds)
    print(f"targeted generator: {targeted_worlds} worlds "
          f"x {targeted_frames} frames ...")
    targeted_scalar, _, _ = run_scalar(
        seeds[:targeted_sample], targeted_frames, targeted=True)
    targeted_batch, _, _, targeted_fallbacks = run_batched(
        seeds[:targeted_worlds], targeted_frames, targeted=True)
    targeted_parity = [targeted_batch[i] == targeted_scalar[i]
                      for i in range(targeted_sample)]
    print(f"  parity {sum(targeted_parity)}/{targeted_sample}, "
          f"fallbacks: {targeted_fallbacks or 'none'}")

    print(f"width curve: {CURVE_FRAMES} frames per world ...")
    curve = width_curve()
    print(f"Table V byte row, first {TABLE5_TRIALS} trials ...")
    table5 = table5_trials()

    report = {
        "benchmark": "batched lockstep campaign vs scalar kernel",
        "workload": {
            "target": "UnlockTestbench",
            "frames_per_world": args.frames,
            "interval_us": 1000,
        },
        "worlds": args.worlds,
        "scalar": {
            "worlds_sampled": sample,
            "wall_seconds": scalar_wall,
            "frames_per_wall_second": scalar_fps,
        },
        "batched": {
            "worlds": args.worlds,
            "wall_seconds": batch_wall,
            "frames_per_wall_second": batch_fps,
            "fallback_reasons": fallbacks,
        },
        "speedup": speedup,
        "parity": {
            "worlds_checked": sample,
            "world_by_world_identical": parity,
            "all_identical": all(parity),
        },
        "targeted": {
            "generator": "TargetedFrameGenerator",
            "id_pool": list(TARGETED_IDS),
            "worlds": targeted_worlds,
            "frames_per_world": targeted_frames,
            "fallback_reasons": targeted_fallbacks,
            "worlds_checked": targeted_sample,
            "world_by_world_identical": targeted_parity,
            "all_identical": all(targeted_parity),
        },
        "width_curve": curve,
        "table5": {
            "experiment": "UnlockExperiment(check_mode='byte', seed=0)",
            "trials": table5,
            "all_identical": all(row["identical"] for row in table5),
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")

    ok = (all(parity) and not fallbacks and speedup >= 10.0
          and all(targeted_parity) and not targeted_fallbacks
          and all(p["all_identical"] and not p["fallback_reasons"]
                  for p in curve)
          and curve[0]["speedup"] >= 1.0
          and all(row["identical"] and not row["fallback_reasons"]
                  for row in table5))
    if not ok:
        print("FAILED: need >= 10x with full world-by-world parity, a "
              "fallback-free targeted variant, parity at every width "
              "with width 1 at >= 1x, and Table V trials identical to "
              "the scalar reference", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
