"""The artifact comparison of ``tools/output_digests.py``, on fake runs."""

import importlib.util
import json
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load():
    # The script imports its sibling ``bench_pairs`` from its own directory.
    sys.path.insert(0, str(_TOOLS))
    try:
        spec = importlib.util.spec_from_file_location("output_digests", _TOOLS / "output_digests.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_TOOLS))
    return module


output_digests = _load()


def write_json(path, value):
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


class TestDigest:
    def test_elapsed_seconds_is_ignored_at_any_depth(self, tmp_path):
        a, b, c = (tmp_path / f"{name}.json" for name in "abc")
        write_json(a, {"elapsed_seconds": 1.0, "summary": {"elapsed_seconds": 2.0, "delta_max": 0.5}})
        write_json(b, {"summary": {"delta_max": 0.5, "elapsed_seconds": 9.0}, "elapsed_seconds": 3.0})
        write_json(c, {"elapsed_seconds": 1.0, "summary": {"elapsed_seconds": 2.0, "delta_max": 0.25}})
        digest = output_digests.digest
        assert digest(a) == digest(b) != digest(c)

    def test_other_files_by_their_bytes(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        a.write_text("<svg/>\n")
        b.write_text("<svg/>")
        assert output_digests.digest(a) != output_digests.digest(b)


class TestCompare:
    def test_verdict_per_artifact_in_name_order(self):
        parent = {"b/trace.csv": "1", "a/mode.svg": "2", "c/summary.json": "3"}
        change = {"b/trace.csv": "1", "a/mode.svg": "9", "d/x_error.svg": "4"}
        assert output_digests.compare(parent, change) == [
            ("a/mode.svg", "DIFFERS"),
            ("b/trace.csv", "same"),
            ("c/summary.json", "MISSING in change"),
            ("d/x_error.svg", "MISSING in parent"),
        ]


class TestMain:
    """``main`` with the export and the CLI runs replaced by fakes."""

    def run_main(self, monkeypatch, capsys, changed=None):
        calls = []

        def fake_run(tree, args, out):
            # Every run writes a trace, a panel and its JSON with a fresh
            # elapsed time; ``changed`` names an artifact the change alters.
            calls.append((tree == output_digests.ROOT, args[0]))
            out.mkdir(parents=True)
            side = "change" if tree == output_digests.ROOT else "parent"
            for name in ("trace.csv", "mode.svg"):
                text = f"{name} of {out.name}"
                if side == "change" and f"{out.name}/{name}" == changed:
                    text += " altered"
                (out / name).write_text(text)
            report = "verify_report.json" if args[0] == "verify" else "summary.json"
            write_json(out / report, {"elapsed_seconds": len(calls), "run": out.name})

        monkeypatch.setattr(output_digests, "export_tree", lambda rev, dest: None)
        monkeypatch.setattr(output_digests, "run_cli", fake_run)
        code = output_digests.main(["--parent", "HEAD"])
        return code, calls, capsys.readouterr().out.splitlines()

    def test_identical_artifacts_exit_0(self, monkeypatch, capsys):
        code, calls, lines = self.run_main(monkeypatch, capsys)
        assert code == 0
        runs = len(output_digests.RUNS)
        assert calls == [(False, a[0]) for a in output_digests.RUNS.values()] + [
            (True, a[0]) for a in output_digests.RUNS.values()
        ]
        assert len(lines) == 3 * runs and all(line.endswith(": same") for line in lines)
        assert "verify/verify_report.json: same" in lines
        assert "robust-seed7/summary.json: same" in lines

    def test_one_altered_artifact_exits_1(self, monkeypatch, capsys):
        code, _, lines = self.run_main(monkeypatch, capsys, changed="robust-seed1/mode.svg")
        assert code == 1
        assert [line for line in lines if not line.endswith(": same")] == [
            "robust-seed1/mode.svg: DIFFERS"
        ]
