import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strmv.errors import DataFormatError, DimensionError, NumericError
from strmv.panel import (
    ReturnPanel,
    SyntheticSpec,
    center_and_factor,
    generate_synthetic,
    load_panel,
    save_panel,
)


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
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())

    def outcome():
        try:
            panel = load_panel(path)
        except Exception as exc:  # the reference fixes the exception class and text
            return type(exc), str(exc)
        return panel.asset_ids, panel.returns.tolist()

    fast = outcome()

    def reject(*args, **kwargs):
        raise ValueError("forced per-cell parse")

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", reject)
        assert outcome() == fast
