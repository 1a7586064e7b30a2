"""Tests for the Table V unlock experiment harness.

These run real blind-fuzz trials at the paper's 1 frame/ms rate in
simulated time; seeds are fixed so the suite stays fast (the selected
trials unlock within a few hundred simulated seconds).
"""

import pytest

from repro.testbench.experiment import ROW_LABELS, TableVRow, UnlockExperiment


class TestTrialMechanics:
    def test_blind_fuzz_eventually_unlocks(self):
        experiment = UnlockExperiment(check_mode="byte", seed=42)
        outcome = experiment.run_trial(0)
        assert outcome.unlocked
        assert outcome.seconds_to_unlock is not None
        assert outcome.seconds_to_unlock > 0
        # 1 frame/ms: frames ~ milliseconds elapsed.
        assert outcome.frames_sent == pytest.approx(
            outcome.seconds_to_unlock * 1000, rel=0.01)

    def test_trials_are_reproducible(self):
        first = UnlockExperiment(check_mode="byte", seed=42).run_trial(0)
        second = UnlockExperiment(check_mode="byte", seed=42).run_trial(0)
        assert first.seconds_to_unlock == second.seconds_to_unlock

    def test_trials_are_independent(self):
        experiment = UnlockExperiment(check_mode="byte", seed=42)
        a = experiment.run_trial(0)
        b = experiment.run_trial(1)
        assert a.seconds_to_unlock != b.seconds_to_unlock

    def test_timeout_analytic_default(self):
        loose = UnlockExperiment(check_mode="byte")
        strict = UnlockExperiment(check_mode="byte+dlc")
        assert strict.trial_timeout_seconds > loose.trial_timeout_seconds


class TestTableVRow:
    def test_mean(self):
        row = TableVRow(label="demo", check_mode="byte",
                        times_seconds=(89.0, 1650.0, 373.0), timeouts=0)
        assert row.mean_seconds == pytest.approx((89 + 1650 + 373) / 3)

    def test_empty_row_mean_raises(self):
        row = TableVRow("demo", "byte", (), 1)
        with pytest.raises(ValueError):
            row.mean_seconds

    def test_format_contains_times_and_mean(self):
        row = TableVRow(label=ROW_LABELS["byte"], check_mode="byte",
                        times_seconds=(100.0, 200.0), timeouts=0)
        text = row.format()
        assert "100" in text and "mean: 150s" in text

    def test_row_labels_cover_modes(self):
        assert set(ROW_LABELS) == {"byte", "byte+dlc", "two-byte"}


class TestSmallSample:
    def test_three_trial_row(self):
        """A 3-trial row exercises the full harness path end-to-end."""
        experiment = UnlockExperiment(check_mode="byte", seed=7)
        row = experiment.run_trials(3)
        assert len(row.times_seconds) + row.timeouts == 3
        assert row.times_seconds, "at least one trial should unlock"
        assert row.label == ROW_LABELS["byte"]


class TestEngineParity:
    """``run_trial`` goes through the lockstep engine; the scalar
    kernel is the reference it must reproduce bit for bit."""

    # (check mode, seed, cap in simulated seconds): the byte and
    # byte+dlc worlds unlock inside their caps (at 32.7 s and 78.6 s,
    # after lock and unlock commands on the way); the two-byte world
    # runs to its cap.
    CASES = [("byte", 6, 40.0), ("byte+dlc", 17, 90.0),
             ("two-byte", 0, 20.0)]

    @pytest.mark.parametrize("mode,seed,cap", CASES)
    def test_capped_trial_matches_scalar(self, mode, seed, cap):
        experiment = UnlockExperiment(check_mode=mode, seed=seed,
                                      trial_timeout_seconds=cap)
        outcome, result = experiment.trial_result(0)
        want_outcome, want = experiment.trial_result(0, scalar=True)
        assert outcome == want_outcome
        assert result.to_dict() == want.to_dict()
        assert result.fallback_reasons == []
        assert experiment.run_trial(0) == want_outcome
        assert outcome.unlocked == (mode != "two-byte")
