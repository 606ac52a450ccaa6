"""The verdicts of ``tools/bench_pairs.py`` on hand-made paired runs."""

import importlib.util
import json
import subprocess
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

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        # Parent quartiles 90 and 110 around a median of 100: a spread of 20,
        # wider than a bound of 0.1 (10).
        wide = [80.0, 90.0, 90.0, 100.0, 100.0, 100.0, 110.0, 110.0, 120.0]
        v = verdict(wide, [p + 1.0 for p in wide], "higher", 0.1)
        assert (v["parent"]["q1"], v["parent"]["q3"]) == (90.0, 110.0)
        assert v["within_bound"] and v["unresolved"]
        # Every change run better than every parent run resolves it.
        v = verdict(wide, [121.0 + k for k in range(9)], "higher", 0.1)
        assert v["within_bound"] and not v["unresolved"]
        v = verdict(wide, [79.0 - k for k in range(9)], "lower", 0.1)
        assert v["within_bound"] and not v["unresolved"]
        # A spread inside the bound leaves the verdict kept.
        assert not verdict(wide, [p + 1.0 for p in wide], "higher", 0.25)["unresolved"]
        assert not verdict(PARENT, [p - 1.0 for p in PARENT], "higher", 0.2)["unresolved"]

    def test_single_pair(self):
        v = verdict([5.0], [6.0], "higher", 0.2)
        assert v["parent"] == {"q1": 5.0, "median": 5.0, "q3": 5.0}
        assert v["wins"] == 1 and v["gain"]

    def test_unpaired_runs_rejected(self):
        with pytest.raises(ValueError):
            verdict([1.0, 2.0], [1.0], "higher", 0.2)


BENCHMARK = {"workloads": [{"name": "first"}, {"name": "second"}, {"name": "third"}]}


class TestWorkloadSelection:
    def test_every_workload_in_order_when_none_is_named(self):
        assert bench_pairs.select_workloads(BENCHMARK, None) == ["first", "second", "third"]

    def test_a_named_workload_alone(self):
        assert bench_pairs.select_workloads(BENCHMARK, "second") == ["second"]

    def test_an_undeclared_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload 'fourth'"):
            bench_pairs.select_workloads(BENCHMARK, "fourth")


class TestWorkingTreeCopy:
    def test_tracked_and_untracked_files_with_their_working_tree_contents(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "sub").mkdir(parents=True)

        def git(*argv):
            subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *argv],
                           check=True, capture_output=True)

        git("init", "-q")
        files = {".gitignore": "ignored.txt\n", "kept.py": "kept\n", "sub/edited.py": "committed\n",
                 "deleted.py": "gone\n"}
        for name, text in files.items():
            (repo / name).write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", "start")
        (repo / "sub" / "edited.py").write_text("edited\n")
        (repo / "deleted.py").unlink()
        (repo / "untracked.py").write_text("new\n")
        (repo / "ignored.txt").write_text("build output\n")

        dest = tmp_path / "change"
        bench_pairs.copy_working_tree(repo, dest)
        copied = {p.relative_to(dest).as_posix(): p.read_text() for p in dest.rglob("*") if p.is_file()}
        assert copied == {".gitignore": "ignored.txt\n", "kept.py": "kept\n",
                          "sub/edited.py": "edited\n", "untracked.py": "new\n"}


class TestMain:
    """``main`` with the export, the copy and the perfbench runs replaced
    by fakes."""

    def run_main(self, monkeypatch, capsys, argv, slow=()):
        calls = []
        benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())

        def fake_run(tree, workload, seed, seconds):
            calls.append((tree, workload))
            # The change halves steps_per_s on the workloads named in ``slow``.
            scale = 0.5 if workload in slow and tree.name == "change" else 1.0
            values = {m["name"]: 1.0 for m in benchmark["end_to_end"]}
            values["steps_per_s"] = 100.0 * scale
            return {"correct": True, "metrics": values}

        monkeypatch.setattr(bench_pairs, "export_tree", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda root, dest: None)
        monkeypatch.setattr(bench_pairs, "run_once", fake_run)
        code = bench_pairs.main(["--parent", "HEAD", "--seed", "1", "--pairs", "2",
                                 "--seconds", "1", *argv])
        return code, calls, capsys.readouterr().out, benchmark

    def test_without_a_workload_every_workload_runs_under_its_heading(self, monkeypatch, capsys):
        code, calls, out, benchmark = self.run_main(monkeypatch, capsys, [])
        names = [w["name"] for w in benchmark["workloads"]]
        assert code == 0
        assert [w for _, w in calls] == [w for w in names for _ in range(4)]
        headings = [line for line in out.splitlines() if line.startswith("== ")]
        assert headings == [f"== {name} ==" for name in names]
        reports = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert [r["workload"] for r in reports] == names

    def test_one_workload_runs_alone(self, monkeypatch, capsys):
        code, calls, out, benchmark = self.run_main(monkeypatch, capsys, ["--workload", "robust-sweep"])
        assert code == 0 and {w for _, w in calls} == {"robust-sweep"} and len(calls) == 4

    def test_a_bound_exceeded_on_any_workload_exits_1(self, monkeypatch, capsys):
        code, _, out, _ = self.run_main(monkeypatch, capsys, [], slow=("verify-plot",))
        assert code == 1
        assert "EXCEEDED" in out.split("== verify-plot ==")[1]

    def test_both_sides_run_from_sibling_trees_of_equal_path_length(self, monkeypatch, capsys):
        # The change used to run from the checkout and the parent from an
        # export, and peak_rss_mb followed the length of the path.
        _, calls, _, _ = self.run_main(monkeypatch, capsys, ["--workload", "simulate-ideal"])
        trees = {tree.name: tree for tree, _ in calls}
        assert sorted(trees) == ["change", "parent"]
        assert trees["parent"].parent == trees["change"].parent != bench_pairs.ROOT
        assert len(str(trees["parent"])) == len(str(trees["change"]))
