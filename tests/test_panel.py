import csv
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strmv.panel
from strmv.errors import DataFormatError, DimensionError, NumericError
from strmv.panel import (
    ReturnPanel,
    SyntheticSpec,
    center_and_factor,
    generate_synthetic,
    load_panel,
    save_panel,
)

from reference import qr_synthetic_returns


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadPanel:
    def test_direct_parse(self, tmp_path):
        path = write(tmp_path, "asset,p1,p2,p3\nA,0.01,0.02,-0.01\nB,0.00,0.01,0.03\n")
        panel = load_panel(path)
        assert panel.n == 2 and panel.T == 3
        assert panel.asset_ids == ["A", "B"]
        np.testing.assert_allclose(
            panel.returns, [[0.01, 0.02, -0.01], [0.00, 0.01, 0.03]]
        )

    def test_empty_cell_is_zero(self, tmp_path):
        path = write(tmp_path, "asset,p1,p2\nA,0.1,\nB,0.2,0.3\n")
        panel = load_panel(path)
        assert panel.returns[0, 1] == 0.0

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "asset,p1,p2,p3\nA,1,2,3\nB,1,2,3,4\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_panel(path)

    def test_garbage_cell_reports_location(self, tmp_path):
        path = write(tmp_path, "asset,p1,p2\nA,0.1,0.2\nB,oops,0.3\n")
        with pytest.raises(DataFormatError, match="row 3, column 2"):
            load_panel(path)

    def test_too_small(self, tmp_path):
        path = write(tmp_path, "asset,p1,p2\nA,0.1,0.2\n")
        with pytest.raises(DimensionError):
            load_panel(path)

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "asset,p1,p2\nA,0.1,inf\nB,0.2,0.3\n")
        with pytest.raises(NumericError):
            load_panel(path)

    def test_round_trip(self, tmp_path):
        panel = generate_synthetic(SyntheticSpec(n=4, T=7, seed=11))
        path = tmp_path / "rt.csv"
        save_panel(panel, path)
        again = load_panel(path)
        np.testing.assert_array_equal(again.returns, panel.returns)
        assert again.asset_ids == panel.asset_ids


def edit_csv(path, file_row, change):
    """Replace line ``file_row`` (1-based, the header is 1) of a CRLF file by
    ``change(cells)``, where ``cells`` is the line split at commas."""
    lines = path.read_bytes().decode().split("\r\n")
    lines[file_row - 1] = change(lines[file_row - 1].split(","))
    path.write_bytes("\r\n".join(lines).encode())


def set_cell(path, file_row, column, text):
    def change(cells):
        cells[column - 1] = text
        return ",".join(cells)

    edit_csv(path, file_row, change)


class TestCsvErrorContract:
    """The load contract on a 50x300 file written by ``save_panel``, then edited.

    File rows count the header as row 1 and columns count the asset id as
    column 1, so cell (row r, column c) is ``returns[r - 2, c - 2]``.
    """

    @pytest.fixture
    def saved(self, tmp_path):
        panel = generate_synthetic(SyntheticSpec(n=50, T=300, seed=4))
        path = tmp_path / "big.csv"
        save_panel(panel, path)
        return panel, path

    def test_clean_file_skips_the_per_cell_parse(self, saved, monkeypatch):
        import strmv.panel

        def per_cell(*args):
            raise AssertionError("per-cell parse ran on a well-formed file")

        monkeypatch.setattr(strmv.panel, "_parse_cells", per_cell)
        panel, path = saved
        again = load_panel(path)
        assert again.asset_ids == panel.asset_ids
        np.testing.assert_array_equal(again.returns, panel.returns)

    def test_empty_cell_deep_in_file_is_zero(self, saved):
        panel, path = saved
        set_cell(path, 40, 250, "")
        expected = panel.returns.copy()
        expected[38, 248] = 0.0
        again = load_panel(path)
        assert again.asset_ids == panel.asset_ids
        np.testing.assert_array_equal(again.returns, expected)

    def test_bad_cell_named_by_row_and_column(self, saved):
        _, path = saved
        set_cell(path, 37, 120, "oops")
        with pytest.raises(DataFormatError, match="'oops' at row 37, column 120"):
            load_panel(path)

    def test_row_one_cell_long(self, saved):
        _, path = saved
        edit_csv(path, 20, lambda cells: ",".join(cells + ["0.5"]))
        with pytest.raises(DataFormatError, match="row 20 has 302 columns, expected 301"):
            load_panel(path)

    def test_row_one_cell_short(self, saved):
        _, path = saved
        edit_csv(path, 45, lambda cells: ",".join(cells[:-1]))
        with pytest.raises(DataFormatError, match="row 45 has 300 columns, expected 301"):
            load_panel(path)

    @pytest.mark.parametrize("after_header", [b"\r\n", b"\r\n\r\n\r\n"],
                             ids=["header_only", "then_blank_lines"])
    def test_no_data_rows(self, saved, after_header):
        _, path = saved
        path.write_bytes(path.read_bytes().split(b"\r\n")[0] + after_header)
        with pytest.raises(DataFormatError, match="header row plus data rows"):
            load_panel(path)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_rejected(self, saved, text):
        _, path = saved
        set_cell(path, 30, 200, text)
        with pytest.raises(NumericError):
            load_panel(path)

    def test_blank_lines_are_skipped(self, saved):
        panel, path = saved
        edit_csv(path, 11, lambda cells: "\r\n" + ",".join(cells))  # before row 11
        edit_csv(path, 2, lambda cells: "\n" + ",".join(cells))  # LF only, before row 2
        path.write_bytes(path.read_bytes() + b"\r\n\r\n")
        again = load_panel(path)
        assert again.asset_ids == panel.asset_ids
        np.testing.assert_array_equal(again.returns, panel.returns)

    def test_rows_after_a_blank_line_are_numbered_as_file_lines(self, saved):
        _, path = saved
        edit_csv(path, 11, lambda cells: "\r\n" + ",".join(cells))
        set_cell(path, 38, 120, "oops")  # row 37 of the unedited file
        with pytest.raises(DataFormatError, match="row 38, column 120"):
            load_panel(path)


class TestCenterAndFactor:
    def test_constant_rows(self):
        panel = ReturnPanel(asset_ids=["a", "b"], returns=[[1.0, 1.0], [2.0, 2.0]])
        f = center_and_factor(panel)
        np.testing.assert_allclose(f.L, 0.0)
        np.testing.assert_allclose(f.mean, [1.0, 2.0])

    def test_single_asset_variance(self):
        # mean 1, centered (-1, 1), scale 1/sqrt(1): LL^T equals the sample
        # variance of (0, 2), which is 2.
        panel = ReturnPanel(asset_ids=["a"], returns=[[0.0, 2.0]])
        f = center_and_factor(panel)
        np.testing.assert_allclose(f.mean, [1.0])
        np.testing.assert_allclose(f.L, [[-1.0, 1.0]])
        np.testing.assert_allclose(f.L @ f.L.T, [[2.0]])

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        panel = ReturnPanel(
            asset_ids=[str(i) for i in range(5)], returns=rng.standard_normal((5, 9))
        )
        f = center_and_factor(panel)
        tol = 1e-10 * panel.n * max(1.0, np.abs(f.L).max())
        assert np.abs(f.L.sum(axis=1)).max() <= tol

    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(3)
        returns = rng.standard_normal((6, 40))
        panel = ReturnPanel(asset_ids=[str(i) for i in range(6)], returns=returns)
        f = center_and_factor(panel)
        direct = np.cov(returns, ddof=1)
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(f.L @ f.L.T - direct).max() <= 1e-12 * scale

    def test_rank_bound(self):
        rng = np.random.default_rng(5)
        returns = rng.standard_normal((8, 4))  # T < n
        panel = ReturnPanel(asset_ids=[str(i) for i in range(8)], returns=returns)
        f = center_and_factor(panel)
        sv = np.linalg.svd(f.L, compute_uv=False)
        rank = int((sv > 1e-10 * sv[0]).sum())
        assert rank <= min(panel.n, panel.T - 1)


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(n=4, T=16, singular_decay=0.5, seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.returns, b.returns)

    def test_dimensions(self):
        panel = generate_synthetic(SyntheticSpec(n=12, T=30, seed=1))
        assert panel.n == 12 and panel.T == 30

    def test_decay_ratio_monte_carlo(self):
        # Consecutive sample singular-value ratios track the requested decay;
        # averaged over seeds they stay well inside [0.3, 0.7] for decay 0.5.
        ratios = []
        for seed in range(20):
            spec = SyntheticSpec(n=10, T=40, singular_decay=0.5, seed=seed)
            f = center_and_factor(generate_synthetic(spec))
            sv = np.linalg.svd(f.L, compute_uv=False)
            lead = sv[: min(10, 40) // 2 + 1]
            ratios.append(lead[1:] / lead[:-1])
        mean_ratio = np.mean(ratios)
        assert 0.3 <= mean_ratio <= 0.7

    def test_noise_floor_clips(self):
        spec = SyntheticSpec(n=8, T=32, singular_decay=0.3, noise_floor=0.05, seed=2)
        f = center_and_factor(generate_synthetic(spec))
        sv = np.linalg.svd(f.L, compute_uv=False)
        # all retained singular values sit near or above the floor
        assert sv[min(8, 32) - 2] >= 0.04

    def test_invalid_specs(self):
        with pytest.raises(DataFormatError):
            SyntheticSpec(n=4, T=8, singular_decay=1.5)
        with pytest.raises(DimensionError):
            SyntheticSpec(n=1, T=8)
        for bad in ({"leading_scale": float("nan")}, {"leading_scale": float("inf")},
                    {"noise_floor": float("nan")}, {"noise_floor": float("inf")}):
            with pytest.raises(DataFormatError, match="finite"):
                SyntheticSpec(n=4, T=8, **bad)


class TestInPlaceBases:
    """``generate_synthetic`` factors each Gaussian draw in place: the panel
    is bit for bit the one ``np.linalg.qr`` bases give, with a peak of one
    copy of each draw."""

    @pytest.mark.parametrize("n, T, decay, floor", [
        (30, 90, 0.9, 0.02),  # T > n
        (24, 24, 0.9, 0.02),  # T = n
        (40, 24, 0.9, 0.02),  # T < n
        (2, 9, 0.5, 0.0),
        (24, 96, 0.8, 0.05),  # the three perfbench toy shapes
        (20, 80, 0.8, 0.05),
        (40, 160, 0.9, 0.02),
        (600, 2400, 0.9, 0.0316),  # the desk panel
    ])
    def test_returns_match_np_linalg_qr_bit_for_bit(self, n, T, decay, floor):
        spec = SyntheticSpec(n=n, T=T, singular_decay=decay, noise_floor=floor, seed=0)
        returns = generate_synthetic(spec).returns
        assert returns.flags.c_contiguous
        np.testing.assert_array_equal(returns, qr_synthetic_returns(spec), strict=True)

    @pytest.mark.parametrize("n, T", [(400, 1600), (300, 300), (600, 200)])
    def test_peak_memory_holds_one_copy_of_each_draw(self, n, T):
        # The peak is the product: the panel, Qv.T and two n x k arrays.
        # np.linalg.qr bases peak at 3.8, 6.1 and 3.7 panels on these shapes.
        spec = SyntheticSpec(n=n, T=T, seed=0)
        k = min(n, T)
        generate_synthetic(spec)  # leave one-time allocations out of the peak
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * T + T * k + 2 * n * k) + 2**14

    def test_lapack_failure_is_a_numeric_error(self, monkeypatch):
        real = strmv.panel.lapack_lite

        class Failing:
            @staticmethod
            def dgeqrf(*args):
                return {**real.dgeqrf(*args), "info": 1}

            dorgqr = real.dorgqr

        monkeypatch.setattr(strmv.panel, "lapack_lite", Failing)
        with pytest.raises(NumericError, match="dgeqrf"):
            generate_synthetic(SyntheticSpec(n=4, T=8))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3), min_size=2, max_size=6
    )
)
def test_centering_identity_property(rows):
    panel = ReturnPanel(asset_ids=[str(i) for i in range(len(rows))], returns=rows)
    f = center_and_factor(panel)
    np.testing.assert_allclose(f.mean, np.asarray(rows).mean(axis=1), atol=1e-12)
    assert np.abs(f.L.sum(axis=1)).max() <= 1e-9 * (1 + np.abs(f.L).max())


EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7e308, -1.7e308]
ID_CHARS = st.one_of(
    st.sampled_from(list('#,"\r\n ') + ["é", "Ω", "中", "\u00a0"]),
    st.characters(codec="utf-8", exclude_categories=("Cs",)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 4),
    T=st.integers(2, 5),
    data=st.data(),
)
def test_csv_round_trip_property(tmp_path, n, T, data):
    values = data.draw(
        st.lists(
            st.one_of(st.sampled_from(EXTREME_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False)),
            min_size=n * T, max_size=n * T,
        )
    )
    ids = data.draw(st.lists(st.text(ID_CHARS, max_size=6), min_size=n, max_size=n))
    ids[0] = "#" + ids[0]  # a leading '#' is data, not a comment
    panel = ReturnPanel(asset_ids=ids, returns=np.reshape(values, (n, T)))

    path = tmp_path / "panel.csv"
    save_panel(panel, path)
    # The layout csv.writer writes: header, then one row per asset.
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["asset"] + [f"p{t + 1}" for t in range(T)])
        for aid, row in zip(ids, panel.returns):
            writer.writerow([aid] + [repr(float(v)) for v in row])
    assert path.read_bytes() == reference.read_bytes()

    again = load_panel(path)
    assert again.asset_ids == ids
    assert again.asset_ids[0].startswith("#")
    assert np.array_equal(again.returns, panel.returns)
    assert np.array_equal(np.signbit(again.returns), np.signbit(panel.returns))


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["", " 1 ", '"2"', '"3"x', "1_0", "+1", ".5", "0x1", "\xa02", "inf",
                     "nan", "oops", "#", '"a,b"', '"a""b"', '"a\r\nb"', '"', " "]),
)


@st.composite
def csv_texts(draw):
    """Short CSV texts near the panel layout: mostly numeric cells, some odd
    ones, an occasional ragged row, mixed line ends, no blank lines."""
    width = draw(st.integers(2, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        w = width if draw(st.integers(0, 5)) else draw(st.integers(1, 5))
        rows.append(",".join(draw(st.lists(CELLS, min_size=w, max_size=w))))
    eol = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    return "asset,p1" + eol + eol.join(rows) + draw(st.sampled_from(["", eol]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_loadtxt_path_matches_per_cell_parse(tmp_path, monkeypatch, text):
    # The per-cell parse is the reference: whatever the one-call path accepts
    # it must read the same, and whatever it rejects goes to the reference.
    # Cut into 2 or 3 parts, the file reads as it does in one.
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())

    def outcome(cpus):
        with monkeypatch.context() as m:
            use_cpus(m, cpus)
            try:
                panel = load_panel(path)
            except Exception as exc:  # the reference fixes the exception class and text
                return type(exc), str(exc)
        return panel.asset_ids, panel.returns.tolist()

    fast = outcome(1)
    assert outcome(2) == fast
    assert outcome(3) == fast

    def reject(*args, **kwargs):
        raise ValueError("forced per-cell parse")

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", reject)
        assert outcome(2) == fast


def use_cpus(monkeypatch, cpus):
    """Make CSV I/O see ``cpus`` CPUs and split any file or panel, however
    small, so it cuts one into that many parts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(strmv.panel, "_LOAD_PART_BYTES", 1)
    monkeypatch.setattr(strmv.panel, "_SAVE_PART_CELLS", 1)


def assert_clean(directory, names):
    """No CSV worker left running and no file in ``directory`` but ``names``."""
    assert multiprocessing.active_children() == []
    assert sorted(os.listdir(directory)) == sorted(names)


# Every id holds a byte csv.writer quotes, so one sits next to every part boundary.
ODD_IDS = ['a,b', 'q"q', "c\rr", "l\nf", '"', ",", "\r\n", 'x,"\r\ny', "é,\n"]
PART_CPUS = [1, 2, 3, 9]  # 9 = one part per asset


def test_a_small_round_trip_starts_no_process(tmp_path, monkeypatch):
    # A worker costs more than the 130 kB it would handle; a part per CPU
    # here would fork.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError("a CSV worker was started")

    monkeypatch.setattr(os, "fork", no_fork)
    panel = generate_synthetic(SyntheticSpec(n=40, T=160, seed=0))
    save_panel(panel, tmp_path / "small.csv")
    again = load_panel(tmp_path / "small.csv")
    assert forks == []
    np.testing.assert_array_equal(again.returns, panel.returns)


class TestParts:
    """CSV I/O in one process per CPU gives the file and the panel of one."""

    @pytest.fixture
    def odd_panel(self):
        values = EXTREME_FLOATS + [0.1, -1e-300]
        rows = np.resize(np.array(values), (len(ODD_IDS), 4))
        return ReturnPanel(asset_ids=list(ODD_IDS), returns=rows)

    def test_save_bytes_identical_across_part_counts(self, tmp_path, monkeypatch, odd_panel):
        files = {}
        for cpus in PART_CPUS:
            use_cpus(monkeypatch, cpus)
            save_panel(odd_panel, tmp_path / f"{cpus}.csv")
            files[cpus] = (tmp_path / f"{cpus}.csv").read_bytes()
            again = load_panel(tmp_path / f"{cpus}.csv")
            assert again.asset_ids == ODD_IDS
            assert np.array_equal(again.returns, odd_panel.returns)
            assert np.array_equal(np.signbit(again.returns), np.signbit(odd_panel.returns))
        assert all(data == files[1] for data in files.values())
        assert_clean(tmp_path, [f"{cpus}.csv" for cpus in PART_CPUS])

    @pytest.mark.parametrize("eol", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
    def test_load_identical_across_part_counts(self, tmp_path, monkeypatch, eol):
        panel = generate_synthetic(SyntheticSpec(n=9, T=6, seed=3))
        rows = panel.returns.copy()
        rows[::2, 1] = -0.0
        rows[1::3, 2] = 5e-324
        ids = [f"#{i}" for i in range(9)]
        lines = ["asset," + ",".join(f"p{t}" for t in range(6))]
        for i, (aid, row) in enumerate(zip(ids, rows)):
            lines += [""] * (i % 3 == 1)  # blank lines carry no row
            lines.append(",".join([aid, *map(repr, row.tolist())]))
        path = tmp_path / "plain.csv"
        path.write_bytes((eol.join(lines) + eol).encode())
        for cpus in PART_CPUS:
            use_cpus(monkeypatch, cpus)
            spans = strmv.panel._row_spans(path, cpus)
            assert min(cpus, 4) <= len(spans) <= cpus  # byte cuts can meet in one line
            again = load_panel(path)
            assert again.asset_ids == ids
            assert np.array_equal(again.returns, rows)
            assert np.array_equal(np.signbit(again.returns), np.signbit(rows))
        assert_clean(tmp_path, ["plain.csv"])

    def test_panel_without_assets_writes_the_header(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        save_panel(ReturnPanel(asset_ids=[], returns=np.zeros((0, 2))), tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b"asset,p1,p2\r\n"

    def test_a_quote_keeps_the_file_in_one_part(self, tmp_path, odd_panel):
        save_panel(odd_panel, tmp_path / "odd.csv")
        assert len(strmv.panel._row_spans(tmp_path / "odd.csv", 3)) == 1

    @pytest.fixture
    def saved(self, tmp_path):
        panel = generate_synthetic(SyntheticSpec(n=50, T=300, seed=4))
        save_panel(panel, tmp_path / "big.csv")
        return panel, tmp_path / "big.csv"

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_errors_in_the_last_part_are_the_one_part_errors(self, saved, monkeypatch, cpus):
        panel, path = saved
        use_cpus(monkeypatch, cpus)
        clean = path.read_bytes()
        set_cell(path, 51, 250, "oops")
        with pytest.raises(DataFormatError, match="'oops' at row 51, column 250"):
            load_panel(path)
        assert_clean(path.parent, ["big.csv"])
        path.write_bytes(clean)
        edit_csv(path, 51, lambda cells: ",".join(cells[:-1]))
        with pytest.raises(DataFormatError, match="row 51 has 300 columns, expected 301"):
            load_panel(path)
        assert_clean(path.parent, ["big.csv"])
        path.write_bytes(clean)
        set_cell(path, 51, 250, "")
        expected = panel.returns.copy()
        expected[49, 248] = 0.0
        again = load_panel(path)
        assert again.asset_ids == panel.asset_ids
        np.testing.assert_array_equal(again.returns, expected)
        assert_clean(path.parent, ["big.csv"])

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_rejected_part_is_parsed_cell_by_cell_at_once(
            self, saved, monkeypatch, tmp_path_factory, cpus):
        # np.loadtxt reads each part once and never the whole file after a
        # part rejects a cell; the fill and the message stay the one-part ones.
        panel, path = saved
        log = tmp_path_factory.mktemp("calls") / "loadtxt"
        real = np.loadtxt

        def counted(*args, **kwargs):
            with open(log, "a") as fh:  # in this process and in every worker
                fh.write(".")
            return real(*args, **kwargs)

        def load(parts):
            use_cpus(monkeypatch, parts)
            log.write_text("")
            try:
                outcome = load_panel(path)
            except DataFormatError as exc:
                outcome = str(exc)
            return outcome, len(log.read_text())

        monkeypatch.setattr(np, "loadtxt", counted)
        parts = len(strmv.panel._row_spans(path, cpus))
        assert parts == cpus
        set_cell(path, 51, 301, "")
        one, one_calls = load(1)
        many, calls = load(cpus)
        assert (one_calls, calls) == (1, parts)
        assert many.asset_ids == one.asset_ids == panel.asset_ids
        np.testing.assert_array_equal(many.returns, one.returns)
        assert one.returns[49, 299] == 0.0
        set_cell(path, 51, 301, "oops")
        one, one_calls = load(1)
        many, calls = load(cpus)
        assert (one_calls, calls) == (1, parts)
        assert many == one and "'oops' at row 51, column 301" in one
        assert_clean(path.parent, ["big.csv"])

    @pytest.mark.parametrize("cpus", PART_CPUS)
    def test_failed_save_leaves_the_previous_file(self, tmp_path, monkeypatch, odd_panel, cpus):
        use_cpus(monkeypatch, cpus)
        path = tmp_path / "panel.csv"
        path.write_bytes(b"previous")
        field = strmv.panel._csv_field

        def fail_on_last_row(text):
            if text == ODD_IDS[-1]:
                raise OSError("disk full")
            return field(text)

        monkeypatch.setattr(strmv.panel, "_csv_field", fail_on_last_row)
        with pytest.raises(OSError, match="disk full"):
            save_panel(odd_panel, path)
        assert path.read_bytes() == b"previous"
        assert_clean(tmp_path, ["panel.csv"])
        monkeypatch.setattr(strmv.panel, "_csv_field", field)
        save_panel(odd_panel, path)
        assert load_panel(path).asset_ids == ODD_IDS
        assert_clean(tmp_path, ["panel.csv"])

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_worker_that_dies_is_waited_for(self, tmp_path, monkeypatch, saved, cpus):
        panel, path = saved
        use_cpus(monkeypatch, cpus)
        here = os.getpid()

        def die_in_a_worker(real):
            def call(*args):
                if os.getpid() != here:
                    os._exit(3)
                return real(*args)
            return call

        # A save fails and leaves the file as it was; a load reads the whole file here.
        monkeypatch.setattr(strmv.panel, "_csv_field", die_in_a_worker(strmv.panel._csv_field))
        with pytest.raises(ChildProcessError, match="exited with code 3"):
            save_panel(generate_synthetic(SyntheticSpec(n=6, T=4)), path)
        monkeypatch.setattr(strmv.panel, "_read_rows", die_in_a_worker(strmv.panel._read_rows))
        again = load_panel(path)
        assert again.asset_ids == panel.asset_ids
        np.testing.assert_array_equal(again.returns, panel.returns)
        assert_clean(tmp_path, ["big.csv"])
