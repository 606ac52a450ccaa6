import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremobs import plots
from dremobs.config import config_from_dict
from dremobs.errors import ConfigurationError, TraceFormatError
from dremobs.trace import (
    BLOCK_ROWS,
    SimulationTrace,
    column_names,
    read_trace,
    trace_to_string,
    traces_equal,
    write_trace,
)

import reference
from conftest import chua_experiment

import dremobs as d


def tiny_run(end_time=0.05, noise_seed=None):
    noise = d.chua_robust_noise(seed=noise_seed) if noise_seed is not None else None
    return d.run_experiment(chua_experiment(end_time, noise))


# Values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the largest double, values that need all 17 digits, infinities.
AWKWARD = (
    -0.0,
    5e-324,
    1.7976931348623157e308,
    0.1 + 0.2,
    1.0 / 3.0,
    -2.2250738585072014e-308,
    -123456.78901234567,
    math.inf,
    -math.inf,
)


def hand_built_trace(rows: int) -> SimulationTrace:
    """An n = m = 1, s = 2 trace filled with the awkward values; the first
    switch has the NaN pre-reset marker."""
    width = len(column_names(1, 1, 2))
    data = np.resize(np.array(AWKWARD), (rows, width))
    data[:, 0] = 0.1 * np.arange(rows)
    data[:, 1] = np.where(np.arange(rows) < rows // 2, 1.0, 2.0)
    switch_times = [0.0] + ([data[rows // 2, 0]] if rows > 1 else [])
    return SimulationTrace(
        meta={"n": 1, "m": 1, "s": 2, "seed": None, "model": "hand-built"},
        data=data,
        switch_times=switch_times,
        pre_reset_delta=[math.nan, 5e-324][: len(switch_times)],
    )


def byte_identity_cases():
    return [
        pytest.param(lambda: tiny_run(end_time=0.3, noise_seed=7).trace, id="robust-run"),
        pytest.param(lambda: hand_built_trace(1), id="hand-1-row"),
        pytest.param(lambda: hand_built_trace(BLOCK_ROWS), id="hand-1-block"),
        pytest.param(lambda: hand_built_trace(BLOCK_ROWS + 1), id="hand-1-block+1"),
    ]


class TestSchema:
    def test_column_count_for_preset_dimensions(self):
        # 1 t + 1 sigma + n + n + y + ybar + (m+n) z + delta + s*m + s + 1 + s
        names = column_names(3, 2, 3)
        assert len(names) == 29
        assert names[0] == "t"
        assert names[-1] == "exc3"

    def test_trace_reports_dimensions(self):
        res = tiny_run()
        trace = res.trace
        assert trace.n == 3 and trace.m == 2 and trace.num_subsystems == 3
        assert trace.data.shape[1] == 29

    def test_misdeclared_dimensions_rejected(self):
        res = tiny_run()
        bad_meta = dict(res.trace.meta)
        bad_meta["n"] = 4
        with pytest.raises(TraceFormatError):
            SimulationTrace(
                meta=bad_meta,
                data=res.trace.data,
                switch_times=res.trace.switch_times,
                pre_reset_delta=res.trace.pre_reset_delta,
            )


class TestRoundTrip:
    def test_write_read_equality(self, tmp_path):
        res = tiny_run(end_time=0.2, noise_seed=3)
        path = tmp_path / "trace.csv"
        write_trace(res.trace, path)
        back = read_trace(path)
        assert traces_equal(res.trace, back)
        assert np.array_equal(res.trace.data, back.data)

    def test_written_bytes_are_deterministic(self, tmp_path):
        res = tiny_run(end_time=0.1, noise_seed=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(res.trace, a)
        write_trace(res.trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_length_run_single_row(self, tmp_path):
        res = tiny_run(end_time=0.0)
        assert res.trace.data.shape[0] == 1
        path = tmp_path / "one.csv"
        write_trace(res.trace, path)
        back = read_trace(path)
        assert back.data.shape[0] == 1
        assert traces_equal(res.trace, back)

    def test_full_precision_survives(self, tmp_path):
        res = tiny_run(end_time=0.1, noise_seed=9)
        # all ybar values carry the raw noise; any rounding would break this
        path = tmp_path / "p.csv"
        write_trace(res.trace, path)
        back = read_trace(path)
        assert (back.ybar == res.trace.ybar).all()

    def test_nan_marker_for_initial_event_round_trips(self, tmp_path):
        res = tiny_run(end_time=0.1)
        assert math.isnan(res.trace.pre_reset_delta[0])
        path = tmp_path / "n.csv"
        write_trace(res.trace, path)
        back = read_trace(path)
        assert math.isnan(back.pre_reset_delta[0])


    def test_crlf_line_endings_read_back_equal(self, tmp_path):
        res = tiny_run(end_time=0.05, noise_seed=2)
        path = tmp_path / "crlf.csv"
        path.write_bytes(trace_to_string(res.trace).replace("\n", "\r\n").encode("ascii"))
        assert traces_equal(read_trace(path), res.trace)


class TestByteIdentity:
    """The block formatters reproduce the value-by-value reference bytes."""

    @pytest.mark.parametrize("make", byte_identity_cases())
    def test_trace_text_and_file(self, make, tmp_path):
        trace = make()
        expected = reference.trace_text(trace)
        assert trace_to_string(trace) == expected
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        assert path.read_bytes() == expected.encode("ascii")
        back = read_trace(path)
        assert traces_equal(back, trace)

    # The awkward values overflow the panel ranges; NaN pixels are expected.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("make", byte_identity_cases())
    def test_svg_panels(self, make, tmp_path, monkeypatch):
        trace = make()
        written = plots.render_trace_plots(trace, tmp_path / "block")
        monkeypatch.setattr(plots, "_points", reference.polyline_points)
        expected = plots.render_trace_plots(trace, tmp_path / "reference")
        assert [p.name for p in written] == [p.name for p in expected]
        assert len(written) == trace.n + 4
        for got, want in zip(written, expected):
            assert "<polyline" in want.read_text()
            assert got.read_bytes() == want.read_bytes(), got.name


class TestFormatErrors:
    def test_missing_tag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_ragged_row_rejected(self, tmp_path):
        res = tiny_run(end_time=0.01)
        path = tmp_path / "r.csv"
        write_trace(res.trace, path)
        text = path.read_text().splitlines()
        text[-1] = text[-1] + ",1.0"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path / "absent.csv")

    def test_header_mismatch_rejected(self, tmp_path):
        res = tiny_run(end_time=0.01)
        path = tmp_path / "h.csv"
        write_trace(res.trace, path)
        text = path.read_text().replace("t,sigma", "time,sigma")
        path.write_text(text)
        with pytest.raises(TraceFormatError):
            read_trace(path)


    def _corrupt(self, tmp_path, edit):
        res = tiny_run(end_time=0.01)
        path = tmp_path / "c.csv"
        write_trace(res.trace, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceFormatError) as info:
            read_trace(path)
        assert str(path) in str(info.value)
        return str(info.value)

    def test_non_numeric_field_names_row(self, tmp_path):
        def edit(lines):
            fields = lines[9].split(",")
            fields[4] = "abc"
            lines[9] = ",".join(fields)

        assert "row 3" in self._corrupt(tmp_path, edit)

    def test_broken_meta_json_rejected(self, tmp_path):
        def edit(lines):
            lines[1] = lines[1][:-5]

        assert "meta" in self._corrupt(tmp_path, edit)

    def test_bad_switch_times_list_rejected(self, tmp_path):
        def edit(lines):
            lines[3] = "# switch_times: [0,zero]"

        assert "switch_times" in self._corrupt(tmp_path, edit)

    def test_blank_body_line_rejected(self, tmp_path):
        def edit(lines):
            lines.insert(8, "")

        assert "row 2" in self._corrupt(tmp_path, edit)

    def test_non_ascii_byte_rejected(self, tmp_path):
        def edit(lines):
            lines[8] = lines[8].replace(",", ",\u00e9", 1)

        assert "ASCII" in self._corrupt(tmp_path, edit)

    def test_hash_in_body_rejected(self, tmp_path):
        # A reader with comment handling on would skip this row unnoticed.
        def edit(lines):
            lines[8] = "#" + lines[8]

        assert "row 2" in self._corrupt(tmp_path, edit)


@functools.lru_cache(maxsize=None)
def twenty_row_trace() -> tuple[SimulationTrace, str, tuple[str, ...]]:
    """A 20-row trace, its header text and its data rows."""
    trace = tiny_run(end_time=0.019, noise_seed=11).trace
    lines = trace_to_string(trace).splitlines()
    return trace, "\n".join(lines[:6]) + "\n", tuple(lines[6:])


class TestMutatedTraces:
    """A mutated trace reads back as exactly the values its rows spell, or
    raises TraceFormatError; no other exception escapes."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["drop", "duplicate", "junk", "blank", "truncate"]),
        row=st.integers(0, 19),
        where=st.integers(0, 10**6),
        junk=st.sampled_from(["x", "#", " ", "\t", "1_0", "'", '"', "+", ";"]),
    )
    def test_equal_or_format_error(self, tmp_path_factory, kind, row, where, junk):
        trace, header, body = twenty_row_trace()
        assert len(body) == 20
        body = list(body)
        fields = body[row].split(",")
        k = where % len(fields)
        if kind == "drop":
            del fields[k]
        elif kind == "duplicate":
            fields.insert(k, fields[k])
        elif kind == "junk":
            cut = where % (len(fields[k]) + 1)
            fields[k] = fields[k][:cut] + junk + fields[k][cut:]
        body[row] = ",".join(fields)
        if kind == "blank":
            body.insert(row, "")
        elif kind == "truncate":
            body[-1] = body[-1][: where % len(body[-1])]
        path = tmp_path_factory.mktemp("mutated") / "m.csv"
        path.write_text(header + "\n".join(body) + "\n")
        try:
            got = read_trace(path)
        except TraceFormatError:
            return
        assert kind in ("junk", "truncate")
        spelled = np.array([[float(f) for f in line.split(",")] for line in body])
        assert np.array_equal(got.data, spelled)
        assert got.meta == trace.meta and got.switch_times == trace.switch_times


class TestStringForm:
    def test_sigma_written_as_integer(self):
        res = tiny_run(end_time=0.01)
        text = trace_to_string(res.trace)
        first_data = text.splitlines()[6]
        assert first_data.split(",")[1] == "1"

    def test_time_column_strictly_increasing_enforced(self):
        res = tiny_run(end_time=0.01)
        data = res.trace.data.copy()
        data[1, 0] = data[0, 0]
        with pytest.raises(TraceFormatError):
            SimulationTrace(
                meta=res.trace.meta,
                data=data,
                switch_times=res.trace.switch_times,
                pre_reset_delta=res.trace.pre_reset_delta,
            )


def seed_header(trace: SimulationTrace) -> str:
    """The value of the trace's ``# seed:`` header line."""
    (line,) = [l for l in trace_to_string(trace).splitlines() if l.startswith("# seed: ")]
    return line[len("# seed: "):]


class TestRecordedSeed:
    """The header and meta record the seed that drove the noise, a run's
    mode follows from its noise, and neither depends on whether the run
    collected diagnostics."""

    def test_noise_seed_is_recorded(self):
        raw = {"plant": "chua", "mode": "robust", "end_time": 0.01,
               "noise": {"v0": 0.1, "seed": 7}}
        trace = d.run_experiment(config_from_dict(raw)).trace
        assert seed_header(trace) == "7"
        assert trace.meta["seed"] == 7 and trace.meta["noise"] == {"v0": 0.1}
        held = d.sample_noise(d.NoiseSpec(v0=0.1, seed=7), np.arange(len(trace.t)))
        np.testing.assert_allclose(trace.ybar - trace.y, held, rtol=0.0, atol=1e-12)

    def test_seed_in_both_places_is_rejected(self):
        # One of the two seeds would be dropped without a word.
        raw = {"plant": "chua", "mode": "robust", "seed": 5, "end_time": 0.01,
               "noise": {"v0": 0.1, "seed": 7}}
        with pytest.raises(ConfigurationError, match="^config.seed: "):
            config_from_dict(raw)

    def test_ideal_run_records_no_seed(self):
        trace = tiny_run(end_time=0.01).trace
        assert seed_header(trace) == "none"
        assert (trace.meta["mode"], trace.meta["seed"], trace.meta["noise"]) == ("ideal", None, None)

    def test_verify_mode_runs_and_records_the_ideal_run(self):
        raw = {"plant": "chua", "mode": "verify", "end_time": 0.01}
        verify = d.run_experiment(config_from_dict(raw)).trace
        ideal = d.run_experiment(config_from_dict(dict(raw, mode="ideal"))).trace
        assert trace_to_string(verify) == trace_to_string(ideal)

    @pytest.mark.parametrize("noise_seed", [None, 3], ids=["ideal", "robust"])
    def test_diagnostics_rerun_records_the_same_meta(self, noise_seed):
        noise = d.chua_robust_noise(seed=noise_seed) if noise_seed is not None else None
        cfg = chua_experiment(0.01, noise)
        plain = d.run_experiment(cfg).trace
        assert d.run_experiment(cfg, collect_diagnostics=True).trace.meta == plain.meta
