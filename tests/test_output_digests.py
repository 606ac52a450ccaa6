"""The artifact comparison of ``tools/output_digests.py``, on fake runs."""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

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


class TestConsoleRecord:
    def test_exit_code_stdout_and_stderr_with_the_directories_replaced(self, tmp_path):
        tree, out = tmp_path / "tree", tmp_path / "tree-out" / "ideal"
        proc = SimpleNamespace(
            returncode=1, stdout=f"trace: {out}/trace.csv\n", stderr=f"{tree}/src/x.py: warning\n"
        )
        assert output_digests.console_record(proc, out, tree) == (
            "exit code: 1\n--- stdout ---\ntrace: <out>/trace.csv\n"
            "--- stderr ---\n<tree>/src/x.py: warning\n"
        )


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


class TestLeafChanges:
    def test_each_differing_leaf_by_its_path(self):
        parent = {"checks": [{"name": "a", "value": 3.4817e-13}, {"name": "b", "value": 1.0}], "ok": True}
        change = {"checks": [{"name": "a", "value": 3.5527e-13}, {"name": "b", "value": 1.0}], "ok": True}
        assert output_digests.leaf_changes(parent, change) == ["checks[0].value: 3.4817e-13 -> 3.5527e-13"]

    def test_keys_and_entries_on_one_side_show_missing(self):
        parent = {"a": [1, 2], "b": {"c": "x"}}
        change = {"a": [1], "d": None}
        assert output_digests.leaf_changes(parent, change) == [
            "a[1]: 2 -> <missing>",
            'b: {"c": "x"} -> <missing>',
            "d: <missing> -> null",
        ]

    def test_leaves_compare_by_their_json_text(self):
        # 1 and 1.0 print differently; NaN equals NaN in the file's text.
        changes = output_digests.leaf_changes({"n": 1, "v": float("nan")}, {"n": 1.0, "v": float("nan")})
        assert changes == ["n: 1 -> 1.0"]


class TestMain:
    """``main`` with the export and the CLI runs replaced by fakes."""

    def run_main(self, monkeypatch, capsys, changed=None, cores=None, kernel_calls=None, configs=None):
        calls = []

        def fake_run(tree, args, out, kernel=None):
            # Every run writes a trace, a panel and its JSON with a fresh
            # elapsed time, and prints its own output directory and tree;
            # ``changed`` names an artifact the change alters, under a
            # forced kernel prefixed with the kernel's name.
            calls.append((tree == output_digests.ROOT, args))
            if configs is not None and "--config" in args:
                path = args[args.index("--config") + 1]
                configs.append((path, json.loads(Path(path).read_text())))
            if kernel_calls is not None:
                kernel_calls.append(kernel)
            out.mkdir(parents=True)
            side = "change" if tree == output_digests.ROOT else "parent"
            label = "" if kernel is None else f"{kernel}/"
            for name in ("trace.csv", "mode.svg"):
                text = f"{name} of {out.name}"
                if side == "change" and f"{label}{out.name}/{name}" == changed:
                    text += " altered"
                (out / name).write_text(text)
            report = "verify_report.json" if args[0] == "verify" else "summary.json"
            value = 0.5 if side == "change" and f"{label}{out.name}/{report}" == changed else 0.25
            checks = [{"name": "a", "value": 1.0}, {"name": "b", "value": value}]
            write_json(out / report, {"elapsed_seconds": len(calls), "run": out.name, "checks": checks})
            stdout = f"trace: {out / 'trace.csv'}\n"
            if side == "change" and f"{label}{out.name}/console.txt" == changed:
                stdout += "one more line\n"
            return SimpleNamespace(returncode=0, stdout=stdout, stderr=f"{tree}/src/dremobs/cli.py\n")

        monkeypatch.setattr(output_digests, "export_tree", lambda rev, dest: None)
        monkeypatch.setattr(output_digests, "run_cli", fake_run)
        argv = ["--parent", "HEAD"]
        if cores is not None:
            monkeypatch.setattr(output_digests, "kernel_core", cores.get)
            argv.append("--kernels")
        code = output_digests.main(argv)
        return code, calls, capsys.readouterr().out.splitlines()

    def test_identical_artifacts_exit_0(self, monkeypatch, capsys):
        configs = []
        code, calls, lines = self.run_main(monkeypatch, capsys, configs=configs)
        assert code == 0
        runs = len(output_digests.RUNS)
        assert [(side, args[0]) for side, args in calls] == [
            (False, a[0]) for a in output_digests.RUNS.values()
        ] + [(True, a[0]) for a in output_digests.RUNS.values()]
        assert len(lines) == 4 * runs and all(line.endswith(": same") for line in lines)
        assert "verify/verify_report.json: same" in lines
        assert "robust-seed7/summary.json: same" in lines
        assert "robust-config/summary.json: same" in lines
        # Both sides read one file for the --config run, whose noise object
        # sets the seed that --seed replaces.
        assert len(configs) == 2 and configs[0] == configs[1]
        path, config = configs[0]
        assert config == output_digests.CONFIG_FILE and config["noise"]["seed"] == 3
        assert [args for _, args in calls].count(
            ["simulate", "--config", path, "--seed", "5", "--T", "20"]
        ) == 2
        # Each side printed its own directories, which the record replaces.
        assert "ideal/console.txt: same" in lines

    def test_an_altered_console_record_exits_1(self, monkeypatch, capsys):
        code, _, lines = self.run_main(monkeypatch, capsys, changed="verify/console.txt")
        assert code == 1
        assert [line for line in lines if not line.endswith(": same")] == [
            "verify/console.txt: DIFFERS"
        ]

    def test_one_altered_artifact_exits_1(self, monkeypatch, capsys):
        code, _, lines = self.run_main(monkeypatch, capsys, changed="robust-seed1/mode.svg")
        assert code == 1
        assert [line for line in lines if not line.endswith(": same")] == [
            "robust-seed1/mode.svg: DIFFERS"
        ]

    def test_an_altered_report_lists_its_differing_leaves(self, monkeypatch, capsys):
        code, _, lines = self.run_main(monkeypatch, capsys, changed="verify/verify_report.json")
        assert code == 1
        assert [line for line in lines if not line.endswith(": same")] == [
            "verify/verify_report.json: DIFFERS",
            "  checks[1].value: 0.25 -> 0.5",
        ]


class TestKernels:
    """``main --kernels`` with the kernel probe replaced by a table of the
    core names a host reports."""

    # Every kernel runs; Prescott reports the Katmai core.
    ALL = {"SkylakeX": "SkylakeX", "Haswell": "Haswell", "Sandybridge": "Sandybridge",
           "Nehalem": "Nehalem", "Prescott": "Katmai"}

    def test_every_kernel_is_compared_under_its_name(self, monkeypatch, capsys):
        kernels = []
        code, _, lines = TestMain().run_main(monkeypatch, capsys, cores=self.ALL, kernel_calls=kernels)
        assert code == 0
        runs = len(output_digests.RUNS)
        # The host's own kernel first, then each forced one, on both sides.
        assert kernels == [k for k in [None, *output_digests.KERNELS] for _ in range(2 * runs)]
        assert len(lines) == 4 * runs * 6 and all(line.endswith(": same") for line in lines)
        assert "ideal/trace.csv: same" in lines
        assert "Prescott/verify/verify_report.json: same" in lines

    def test_a_kernel_the_host_cannot_run_is_unavailable(self, monkeypatch, capsys):
        # The probe failed under SkylakeX, and under Haswell OpenBLAS fell
        # back to another core: neither kernel is compared.
        cores = dict(self.ALL, Haswell="Sandybridge")
        del cores["SkylakeX"]
        kernels = []
        code, _, lines = TestMain().run_main(monkeypatch, capsys, cores=cores, kernel_calls=kernels)
        assert code == 0
        assert "SkylakeX: unavailable" in lines and "Haswell: unavailable" in lines
        assert "SkylakeX" not in kernels and "Haswell" not in kernels
        assert not any(line.startswith(("SkylakeX/", "Haswell/")) for line in lines)
        assert any(line.startswith("Nehalem/") for line in lines)

    def test_an_artifact_differing_under_one_kernel_exits_1(self, monkeypatch, capsys):
        code, _, lines = TestMain().run_main(
            monkeypatch, capsys, changed="Nehalem/robust-seed7/summary.json", cores=self.ALL
        )
        assert code == 1
        assert [line for line in lines if not line.endswith(": same")] == [
            "Nehalem/robust-seed7/summary.json: DIFFERS",
            "  checks[1].value: 0.25 -> 0.5",
        ]

    def test_the_probe_reads_the_forced_core(self, monkeypatch):
        # The probe runs with OPENBLAS_CORETYPE set; a failed probe (a
        # kernel whose instructions the CPU lacks) or one without a core
        # name reports none.
        seen = []

        def fake_run(cmd, env, **kwargs):
            seen.append(env["OPENBLAS_CORETYPE"])
            outcome = {"Prescott": (0, "Katmai\n"), "SkylakeX": (-4, ""), "Nehalem": (0, "")}
            code, out = outcome[env["OPENBLAS_CORETYPE"]]
            return SimpleNamespace(returncode=code, stdout=out)

        monkeypatch.setattr(output_digests.subprocess, "run", fake_run)
        assert output_digests.kernel_core("Prescott") == "Katmai"
        assert output_digests.kernel_core("SkylakeX") is None
        assert output_digests.kernel_core("Nehalem") is None
        assert seen == ["Prescott", "SkylakeX", "Nehalem"]
