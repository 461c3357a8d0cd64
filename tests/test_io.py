import csv

import numpy as np
import pytest

from collective1d.bounces import amplitude_to_csv
from collective1d.dynamics import FieldProfile, TimeSeries, profile_to_csv, timeseries_to_csv
from collective1d.greens import ComplexEnergy, ContourMap, contour_to_csv, pole_records_to_csv
from collective1d.sweep import SweepRecord, sweep_to_csv

_RNG = np.random.default_rng(3)


def _floats(n):
    """Doubles of both signs over 300 decades (squares stay finite)."""
    return _RNG.standard_normal(n) * 10.0 ** _RNG.integers(-150, 150, n).astype(float)


def _pole(sector="symmetric"):
    re, im, n_re, n_im = _floats(4)
    return ComplexEnergy(complex(re, -abs(im)), sector, 2, complex(n_re, n_im))


def _poles(path):
    recs = [_pole() for _ in range(5)]
    pole_records_to_csv(recs, path)
    return [[r.value.real, r.value.imag, r.gamma, r.normalization.real, r.normalization.imag]
            for r in recs], slice(2, None)


def _contour(path):
    cmap = ContourMap(_floats(4), _floats(3), _floats(12).reshape(3, 4), 0)
    contour_to_csv(cmap, path)
    return [[re, im, cmap.values[iy, ix]] for iy, im in enumerate(cmap.im)
            for ix, re in enumerate(cmap.re)], slice(None)


def _amplitude(path):
    times, re, im = _floats(6), _floats(6), _floats(6)
    amps = re + 1j * im
    amplitude_to_csv(times, amps, path)
    return [[t, a.real, a.imag, 0.5 * abs(a) ** 2] for t, a in zip(times, amps)], slice(None)


def _sweep(path):
    recs = [SweepRecord(float(x), _pole(), _pole("antisymmetric")) for x in np.sort(_floats(5))]
    sweep_to_csv(recs, path)
    return [[r.x21, r.z_s.omega_tilde, r.z_s.gamma, r.z_a.omega_tilde, r.z_a.gamma]
            for r in recs], slice(None, 5)


def _timeseries(path):
    series = TimeSeries(np.arange(5.0) * 0.7, _floats(5))
    timeseries_to_csv(series, path)
    return [list(pair) for pair in zip(series.times, series.values)], slice(None)


def _profile(path):
    prof = FieldProfile(_floats(5), np.abs(_floats(5)), 1.0)
    profile_to_csv(prof, path)
    return [list(pair) for pair in zip(prof.positions, prof.intensity)], slice(None)


@pytest.mark.parametrize("write", [_poles, _contour, _amplitude, _sweep, _timeseries, _profile])
def test_csv_float_cells_round_trip_exactly(tmp_path, write):
    path = tmp_path / "out.csv"
    expected, columns = write(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(expected)
    for row, values in zip(rows, expected):
        assert [float(cell) for cell in row[columns]] == [float(v) for v in values]


def test_write_csv_bytes_are_those_of_csv_writer(tmp_path):
    """One % pass gives the bytes csv.writer gave: FLOAT_FORMAT for float
    cells (numpy floats included), str() for every other cell, "," between
    cells and "\\r\\n" after every row."""
    from collective1d.io import FLOAT_FORMAT, write_csv

    rows = [["s", 3, np.int64(-2), 0.1, np.float64(1e-300), float("nan"), -float("inf"), np.float32(0.5)],
            ["a", True, 0, -0.0, *(_floats(4).tolist())],
            [], ["only"], ["", "x"]]
    path = tmp_path / "t.csv"
    write_csv(path, ["h1", "h 2"], rows)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h1", "h 2"])
        writer.writerows([FLOAT_FORMAT % cell if isinstance(cell, float) else cell for cell in row]
                         for row in rows)
    assert path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r", ("x", "y")])
def test_write_csv_refuses_cells_csv_would_quote(tmp_path, cell):
    from collective1d import ConfigError
    from collective1d.io import write_csv

    with pytest.raises(ConfigError, match="quoting"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, cell]])
    with pytest.raises(ConfigError, match="quoting"):
        write_csv(tmp_path / "t.csv", ["a"], [[""]])
