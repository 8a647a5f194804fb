import pytest

from spinchain.plotting import EmptyData, UnknownColumn, emit_plot, read_csv


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "t,alpha,beta\n"
        "0,1.0,2.0\n"
        "1,0.5,nan\n"
        "2,0.25,1.5\n"
    )
    return path


def test_read_csv(sample_csv):
    header, rows = read_csv(sample_csv)
    assert header == ["t", "alpha", "beta"]
    assert rows[0] == [0.0, 1.0, 2.0]
    assert len(rows) == 3


def test_read_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_emit_plot_structure(sample_csv, tmp_path):
    out = tmp_path / "chart.svg"
    emit_plot(*read_csv(sample_csv), ["alpha", "beta"], out)
    body = out.read_text()
    assert body.startswith("<svg ")
    assert body.rstrip().endswith("</svg>")
    assert body.count("<polyline") == 2
    assert ">alpha<" in body and ">beta<" in body
    assert ">t<" in body  # x-axis label from the first column


def test_emit_plot_skips_non_finite_points(sample_csv, tmp_path):
    out = tmp_path / "chart.svg"
    emit_plot(*read_csv(sample_csv), ["beta"], out)
    body = out.read_text()
    polyline = next(line for line in body.splitlines() if "<polyline" in line)
    # three rows, one NaN sample: only two points survive
    assert polyline.count(",") == 2


def test_emit_plot_unknown_column_writes_nothing(sample_csv, tmp_path):
    out = tmp_path / "chart.svg"
    with pytest.raises(UnknownColumn):
        emit_plot(*read_csv(sample_csv), ["gamma"], out)
    assert not out.exists()


def test_emit_plot_empty_data(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,x\n")
    with pytest.raises(EmptyData):
        emit_plot(*read_csv(path), ["x"], tmp_path / "chart.svg")


def test_emit_plot_constant_series(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("t,x\n0,1\n1,1\n2,1\n")
    out = tmp_path / "flat.svg"
    emit_plot(*read_csv(path), ["x"], out)
    assert out.read_text().count("<polyline") == 1
