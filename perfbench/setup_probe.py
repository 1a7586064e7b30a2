"""Build one workload's first world in a fresh interpreter, then print
``ready``.

``perfbench/run.py`` times this script from spawn to the ready line to
get ``setup_s``: interpreter start, the imports a user of that entry
point pays, and the first world it builds.  Usage::

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SCRATCH_DIR
"""

from __future__ import annotations

import os
import sys


def build(workload: str, scratch: str) -> None:
    from repro.fuzz import CampaignLimits, ShardSpec

    if workload == "table5-byte":
        from repro.testbench.bench import UnlockTestbench
        from repro.testbench.experiment import UnlockExperiment

        UnlockExperiment(check_mode="byte", seed=0)
        bench = UnlockTestbench(seed=0, check_mode="byte", monitor_limit=256)
        bench.power_on()
        bench.attacker_adapter()
    elif workload == "lockstep-wide":
        from repro.fuzz.parallel import ShardedCampaign
        from repro.testbench import UnlockBenchFactory

        # Start the worker processes; each builds a world and sends one
        # frame.
        jobs = min(2, os.cpu_count() or 1)
        result = ShardedCampaign(
            UnlockBenchFactory(), shards=jobs, jobs=jobs,
            limits=CampaignLimits(max_frames=jobs, stop_on_finding=True),
        ).run()
        if not result.ok:
            raise SystemExit("set-up shards failed")
    elif workload == "uds-keep-going":
        from repro.fuzz import CampaignJournal
        from repro.testbench import UdsBenchFactory
        # The triage entry points are part of what this workload imports.
        import repro.uds.replay  # noqa: F401

        spec = ShardSpec(index=0, shard_count=1, master_seed=0, seed=0,
                         limits=CampaignLimits(max_frames=1,
                                               stop_on_finding=False))
        campaign = UdsBenchFactory(stop_on_finding=False)(spec)
        campaign.attach_journal(CampaignJournal(scratch))
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")


if __name__ == "__main__":
    build(sys.argv[1], sys.argv[2])
    print("ready", flush=True)
