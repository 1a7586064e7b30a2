"""Correctness-gate failure paths: each raises ``fail_frac`` and makes
the run exit non-zero."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import run as bench
from core import Gates
from loadgen import JobRecord
from workloads import lockstep, service, table5, uds
from workloads.common import Outcome

PINNED = [{"trial": 0, "seconds": 482.281298, "frames": 482282},
          {"trial": 1, "seconds": 546.44033, "frames": 546441}]


def test_table5_gate_passes_on_the_pins():
    gates = table5.check_row(Gates(), PINNED, [482.281298, 546.44033],
                             [482282, 546441], 0)
    assert gates.correct and gates.attempted == 3


@pytest.mark.parametrize("times, frames, timeouts", [
    ([482.281298, 546.4], [482282, 546441], 0),    # a trial time moved
    ([482.281298, 546.44033], [482282, 1], 0),     # a frame count moved
    ([482.281298], [482282], 1),                    # a trial timed out
])
def test_table5_gate_failures(times, frames, timeouts):
    gates = table5.check_row(Gates(), PINNED, times, frames, timeouts)
    assert gates.failed >= 1 and gates.fail_frac > 0 and not gates.correct


def test_table5_frames_unchecked_when_no_scalar_campaign_ran():
    gates = table5.check_row(Gates(), PINNED, [482.281298, 546.44033], [], 0)
    assert gates.correct


def _uds_record(seed, fingerprint, digests):
    return {"seed": seed, "fingerprint": fingerprint, "digests": digests}


def test_uds_gate_failures():
    pool = {"3": {"fingerprint": "f3", "minimized": ["a", "b"]}}
    good = uds.check_campaigns(Gates(), [_uds_record(3, "f3", ["a", "b"])],
                               pool)
    assert good.correct and good.attempted == 3
    moved = uds.check_campaigns(Gates(), [_uds_record(3, "f3", ["a", "c"])],
                                pool)
    assert moved.failed == 1
    other = uds.check_campaigns(Gates(), [_uds_record(3, "fX", ["a", "b"])],
                                pool)
    assert other.failed == 3  # the result and every finding under it


def test_uds_draw_is_seeded_and_balanced_on_every_work_count():
    pool = {str(k): {"events": 1000 + (k * 37) % 300,
                     "replayed": 50 + (k * 11) % 40} for k in range(32)}
    first = uds.draw_campaigns(5, 6, pool)
    assert first == uds.draw_campaigns(5, 6, pool)
    assert first != uds.draw_campaigns(6, 6, pool)
    for count in uds.WORK_COUNTS:
        target = 6 * sum(p[count] for p in pool.values()) / len(pool)
        total = sum(pool[str(k)][count] for k in first)
        assert abs(total - target) <= uds.DRAW_TOLERANCE * target


def _job(index, state, fingerprint=None):
    record = JobRecord(index=index, due=0.0, spec={"job_id": f"j{index}"},
                       state=state, fingerprint=fingerprint)
    if state == "completed":
        record.completed_seen = 0.5
    return record


def test_service_gate_failures():
    records = [_job(0, "completed", "a"), _job(1, "completed", "x"),
               _job(2, "shed"), _job(3, "timed-out")]
    gates = service.check_jobs(Gates(), records, ["a", "b", "c", "d"])
    assert (gates.attempted, gates.failed) == (4, 3)
    assert "fingerprint x vs direct b" in gates.failures[0]


class _Result:
    def __init__(self, payload):
        self.payload = payload

    def to_dict(self):
        return dict(self.payload)


def _round(fingerprint, frames, failures=()):
    outcomes = [SimpleNamespace(index=i, result=_Result({"frames_sent": f}))
                for i, f in enumerate(frames)]
    return SimpleNamespace(outcomes=outcomes,
                           failures=[SimpleNamespace(index=i)
                                     for i in failures],
                           fingerprint=lambda: fingerprint)


def test_lockstep_gate_failures():
    stable = [_round("m", [5, 6]), _round("m", [5, 6])]
    assert lockstep.check_rounds(Gates(), stable,
                                 {1: _Result({"frames_sent": 6})}).correct
    drifted = [_round("m", [5, 6]), _round("n", [5, 7])]
    assert lockstep.check_rounds(Gates(), drifted, {}).failed == 2
    failed = [_round("m", [5, 6], failures=[2])]
    assert lockstep.check_rounds(Gates(), failed, {}).failed == 1
    scalar = lockstep.check_rounds(Gates(), stable,
                                   {0: _Result({"frames_sent": 9})})
    assert scalar.failures == ["shard 0 differs from its scalar run"]


# -- the command's exit code and last line --------------------------------

def _failing_workload(ctx):
    gates = Gates()
    gates.check(True, "fine")
    gates.check(False, "output mismatched its reference")
    return Outcome(setup=[0.5, 0.6, 0.7], throughput=(10.0, [9.0, 11.0], "x"),
                   latencies=[0.1, 0.2, 0.3], latency_item="item",
                   gates=gates, cpu_s=1.0, peak_rss_mb=50.0,
                   layers={"uds.requests": 40, "trace.overhead_frac": 0.1})


@pytest.fixture
def harness(tmp_path, monkeypatch):
    (tmp_path / "pins.json").write_text("{}")
    monkeypatch.setattr(bench, "HERE", tmp_path)
    monkeypatch.setattr(bench, "_module",
                        lambda name: SimpleNamespace(run=_failing_workload))
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
def test_gate_failure_exits_non_zero_and_reports_fail_frac(harness, capsys,
                                                           trace):
    code = bench.run_one(bench.parse_args(
        ["--workload", "table5-byte", "--seed", "3", "--trace", str(trace)]))
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (2, 1)
    # Every declared metric, by its declared unit; an idle layer is 0.
    declared = bench.declared_metrics()["per_layer" if trace
                                        else "end_to_end"]
    assert {name: row["unit"] for name, row in last["metrics"].items()} \
        == declared
    if trace:
        assert last["metrics"]["uds.requests"]["value"] == 40
        assert last["metrics"]["sim.events_fired"]["value"] == 0
    report = json.loads((harness / "out" / f"table5-byte-seed3-trace{trace}"
                                           f".json").read_text())
    assert report["fail_frac"] == 0.5
    assert report["failures"] == ["output mismatched its reference"]
    assert report["host"]["nproc"] >= 1


def test_without_the_program_it_exits_non_zero_and_prints_no_result(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    assert bench.main(["--workload", "lockstep-wide"]) == 2
    assert capsys.readouterr().out == ""


# -- the benchmark's declared metrics -------------------------------------

def test_an_undeclared_layer_metric_is_refused(harness, monkeypatch):
    def workload(ctx):
        outcome = _failing_workload(ctx)
        outcome.layers["made.up_s"] = 1.0
        return outcome
    monkeypatch.setattr(bench, "_module",
                        lambda name: SimpleNamespace(run=workload))
    with pytest.raises(ValueError, match="made.up_s"):
        bench.run_one(bench.parse_args(["--workload", "uds-keep-going",
                                        "--trace", "1"]))


def test_every_workload_and_per_layer_metric_has_a_prediction():
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    table = json.loads((bench.HERE / "predictions.json").read_text())
    assert set(table["workloads"]) == set(bench.WORKLOADS)
    metrics = bench.declared_metrics()
    assert {row["metric"] for row in table["per_layer"]} \
        == set(metrics["per_layer"])
    for row in table["per_layer"]:
        for effect in row["moves"]:
            assert effect["workload"] in bench.WORKLOADS
            assert effect["end_to_end"] in metrics["end_to_end"]
        assert set(row["control"]) <= set(bench.WORKLOADS)
