"""The verdicts of ``tools/bench_pairs.py`` on hand-made paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]


class TestVerdict:
    def test_nine_wins_and_a_gap_beyond_the_iqr_is_a_gain(self):
        change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
        v = verdict(PARENT, change, "higher", 0.2)
        assert (v["wins"], v["losses"]) == (9, 1)
        assert v["gain"] and v["within_bound"]
        assert v["parent"]["median"] == 100.0
        assert v["median_gain_pct"] == pytest.approx(10.0)

    def test_eight_wins_is_no_gain(self):
        change = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
        v = verdict(PARENT, change, "higher", 0.2)
        assert v["wins"] == 8 and not v["gain"]

    def test_ties_count_for_neither_side(self):
        change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9]]
        v = verdict(PARENT, change, "higher", 0.2)
        assert (v["wins"], v["losses"]) == (9, 0) and v["gain"]
        change[0] = PARENT[0]
        assert not verdict(PARENT, change, "higher", 0.2)["gain"]

    def test_every_pair_won_inside_the_parent_spread_is_no_gain(self):
        # Parent quartiles 99.25 and 100.75: a gap of 1.5 is not beyond them.
        v = verdict(PARENT, [p + 1.5 for p in PARENT], "higher", 0.2)
        assert (v["parent"]["q1"], v["parent"]["q3"]) == (99.25, 100.75)
        assert v["wins"] == 10 and not v["gain"]
        assert verdict(PARENT, [p + 1.75 for p in PARENT], "higher", 0.2)["gain"]

    def test_lower_is_better(self):
        change = [p * 0.8 for p in PARENT]
        v = verdict(PARENT, change, "lower", 0.1)
        assert v["wins"] == 10 and v["gain"] and v["within_bound"]
        v = verdict(PARENT, [p * 1.11 for p in PARENT], "lower", 0.1)
        assert v["losses"] == 10 and not v["gain"] and not v["within_bound"]

    def test_bound_is_a_fraction_of_the_parent_median(self):
        assert verdict(PARENT, [p * 0.81 for p in PARENT], "higher", 0.2)["within_bound"]
        assert not verdict(PARENT, [p * 0.79 for p in PARENT], "higher", 0.2)["within_bound"]

    def test_single_pair(self):
        v = verdict([5.0], [6.0], "higher", 0.2)
        assert v["parent"] == {"q1": 5.0, "median": 5.0, "q3": 5.0}
        assert v["wins"] == 1 and v["gain"]

    def test_unpaired_runs_rejected(self):
        with pytest.raises(ValueError):
            verdict([1.0, 2.0], [1.0], "higher", 0.2)
