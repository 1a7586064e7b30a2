"""Regenerate ``perfbench/pins.json``: the reference outputs the
correctness gates compare against.

Run it only when a change is *meant* to alter results, and say so in
the change::

    python3 perfbench/pin.py            # both pools, a few minutes

* ``table5-byte``: seconds to unlock and frames sent of the first
  trials of ``UnlockExperiment(check_mode="byte", seed=0)``.
* ``uds-keep-going``: for each campaign seed of the pool, the result
  fingerprint of the 1,500-request keep-going campaign, the digest of
  every finding's minimised request sequence, and two work counts the
  workload balances its draws on (kernel events in the campaign,
  requests simulated during triage).
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from core import Tracer  # noqa: E402
from workloads.common import Context  # noqa: E402

TABLE5_TRIALS = 3
UDS_POOL = 32


def table5_pins() -> dict:
    from repro.testbench.experiment import UnlockExperiment

    experiment = UnlockExperiment(check_mode="byte", seed=0)
    trials = []
    for trial in range(TABLE5_TRIALS):
        outcome = experiment.run_trial(trial)
        trials.append({"trial": trial, "seconds": outcome.seconds_to_unlock,
                       "frames": outcome.frames_sent})
        print(f"table5 trial {trial}: {trials[-1]}", flush=True)
    return {"experiment_seed": 0, "check_mode": "byte", "trials": trials}


def uds_pins() -> dict:
    from workloads import uds

    scratch = Path(tempfile.mkdtemp(prefix="pins-", dir=HERE))
    ctx = Context(seed=0, seconds=1, trace=False, root=HERE.parent,
                  scratch=scratch, tracer=Tracer(), nproc=1, pins={})
    campaigns = {}
    try:
        for seed in range(UDS_POOL):
            record = uds.campaign_round(ctx, seed, 0, ctx.tracer)
            campaigns[str(seed)] = {"fingerprint": record["fingerprint"],
                                    "minimized": record["digests"],
                                    "events": record["events"],
                                    "replayed": record["replayed"]}
            print(f"uds campaign {seed}: {len(record['digests'])} findings",
                  flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"requests": uds.REQUESTS, "campaigns": campaigns}


if __name__ == "__main__":
    pins = {"table5-byte": table5_pins(), "uds-keep-going": uds_pins()}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
