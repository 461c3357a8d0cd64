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
