"""Synthetic workload generation and trace CSV round trips."""

import re

import numpy as np
import pytest

from antscale.domain import ConfigError
from antscale.traces import load_trace_csv, synthetic_trace, write_trace_csv


def test_synthetic_trace_shape_and_determinism():
    a = synthetic_trace(["s1", "s2"], 50, seed=9, peak=200.0)
    b = synthetic_trace(["s1", "s2"], 50, seed=9, peak=200.0)
    assert set(a) == {"s1", "s2"}
    assert all(len(v) == 50 for v in a.values())
    for sid in a:
        assert np.array_equal(a[sid], b[sid])


def test_synthetic_trace_seeds_differ():
    a = synthetic_trace(["s1"], 40, seed=1)
    b = synthetic_trace(["s1"], 40, seed=2)
    assert not np.array_equal(a["s1"], b["s1"])


def test_synthetic_trace_nonnegative_and_peaked():
    trace = synthetic_trace(["s1"], 80, seed=5, peak=300.0, noise=0.0)
    series = np.asarray(trace["s1"])
    assert (series >= 0).all()
    # the noiseless envelope tops out at the peak around two thirds in
    assert series.max() == pytest.approx(300.0)
    peak_at = int(series.argmax())
    assert 0.55 * 80 < peak_at < 0.85 * 80


def test_profiles_scale_services_relative_to_each_other():
    trace = synthetic_trace(
        ["s1", "s2"], 60, seed=3, peak=100.0, noise=0.0,
        profiles={"s1": 1.0, "s2": 0.5},
    )
    ratio = np.asarray(trace["s2"]) / np.asarray(trace["s1"])
    assert np.allclose(ratio, 0.5)


def test_trace_csv_round_trip(tmp_path):
    trace = synthetic_trace(["s1", "s2"], 30, seed=7)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    back = load_trace_csv(path)
    assert set(back) == {"s1", "s2"}
    for sid in trace:
        assert np.allclose(back[sid], trace[sid], rtol=1e-5)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,svc,rate\n0,s1,10\n")
    with pytest.raises(ConfigError):
        load_trace_csv(path)


def test_load_rejects_interval_gap(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(
        "interval,service_id,req_per_min\n0,s1,10\n2,s1,12\n"
    )
    with pytest.raises(ConfigError):
        load_trace_csv(path)


def test_load_rejects_negative_rate(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text(
        "interval,service_id,req_per_min\n0,s1,-4\n"
    )
    with pytest.raises(ConfigError):
        load_trace_csv(path)


@pytest.mark.parametrize("load", ["nan", "inf", "-inf", "NaN"])
def test_load_rejects_a_load_that_is_not_finite(tmp_path, load):
    path = tmp_path / "nan.csv"
    path.write_text(f"interval,service_id,req_per_min\n0,s1,10\n1,s1,{load}\n")
    with pytest.raises(ConfigError, match=":3: load"):
        load_trace_csv(path)


def test_load_rejects_ragged_series(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "interval,service_id,req_per_min\n"
        "0,s1,10\n0,s2,20\n1,s1,11\n"
    )
    with pytest.raises(ConfigError):
        load_trace_csv(path)


def test_load_rejects_a_repeated_row(tmp_path):
    # a later row must not overwrite an earlier one for the same interval and service
    path = tmp_path / "repeat.csv"
    path.write_text("interval,service_id,req_per_min\n0,s1,10\n1,s1,11\n0,s1,999\n")
    want = re.escape(f"trace {path}:4: repeats interval 0 of s1")
    with pytest.raises(ConfigError, match=want):
        load_trace_csv(path)
