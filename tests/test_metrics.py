"""Comparison metrics: frozen hand-checks, properties, and CSV round trips."""

import numpy as np
import pytest

from antscale.metrics import (
    LatencyRecord,
    ObjectiveRecord,
    ProvisionRecord,
    RunLog,
    c_metric,
    g_distance,
    merge_runs,
    overhead,
    provisioning_pct,
    read_runlog,
    violation_pct,
    write_runlog,
)


def obj_log(values, threshold=2.0, direction="minimize", oid="s1.rt", approach="x"):
    return RunLog(
        approach=approach,
        objective_records=[
            ObjectiveRecord(i, oid, float(v), threshold, direction)
            for i, v in enumerate(values)
        ],
    )


def multi_log(series, approach="x"):
    """series: {objective_id: (direction, threshold, values)}"""
    records = []
    for oid, (direction, threshold, values) in series.items():
        for i, v in enumerate(values):
            records.append(ObjectiveRecord(i, oid, float(v), threshold, direction))
    return RunLog(approach=approach, objective_records=records)


# -- violation percentage --------------------------------------------------


def test_violation_pct_hand_check():
    # one breach of 50% relative extent across two intervals
    log = obj_log([3.0, 2.0], threshold=2.0)
    assert violation_pct(log, "s1.rt") == pytest.approx(25.0)


def test_violation_pct_compliant_run_is_zero():
    log = obj_log([1.0, 2.0, 1.5], threshold=2.0)
    assert violation_pct(log, "s1.rt") == 0.0


def test_violation_pct_maximize_direction():
    # throughput of 90 against a target of 180, every interval
    log = obj_log([90.0] * 5, threshold=180.0, direction="maximize", oid="s1.tp")
    assert violation_pct(log, "s1.tp") == pytest.approx(50.0)


def test_violation_pct_zero_threshold_rejected():
    log = obj_log([1.0], threshold=0.0)
    with pytest.raises(ValueError):
        violation_pct(log, "s1.rt")


def test_violation_pct_unknown_objective_rejected():
    with pytest.raises(ValueError):
        violation_pct(obj_log([1.0]), "nope")


# -- provisioning percentage -----------------------------------------------


def prov_log(pairs, resource="cpu"):
    return RunLog(
        approach="x",
        provision_records=[
            ProvisionRecord(i, "v1.cpu", float(p), float(d), resource)
            for i, (p, d) in enumerate(pairs)
        ],
    )


def test_provisioning_over_hand_check():
    assert provisioning_pct(prov_log([(40.0, 20.0)]), "over") == pytest.approx(100.0)


def test_provisioning_under_hand_check():
    assert provisioning_pct(prov_log([(10.0, 20.0)]), "under") == pytest.approx(50.0)


def test_provisioning_exact_match_scores_zero():
    log = prov_log([(20.0, 20.0), (30.0, 30.0)])
    assert provisioning_pct(log, "over") == 0.0
    assert provisioning_pct(log, "under") == 0.0


def test_provisioning_skips_zero_demand_entries():
    # the idle interval affects neither numerator nor denominator
    log = prov_log([(40.0, 20.0), (40.0, 0.0)])
    assert provisioning_pct(log, "over") == pytest.approx(100.0)


def test_provisioning_all_idle_scores_zero():
    assert provisioning_pct(prov_log([(40.0, 0.0)]), "over") == 0.0


def test_provisioning_rejects_empty_log_and_bad_mode():
    with pytest.raises(ValueError):
        provisioning_pct(RunLog(approach="x"), "over")
    with pytest.raises(ValueError):
        provisioning_pct(prov_log([(1.0, 1.0)]), "sideways")


# -- coverage metric -------------------------------------------------------


def two_way(a_values, b_values):
    a = multi_log(a_values, approach="a")
    b = multi_log(b_values, approach="b")
    return c_metric(a, b), c_metric(b, a)


def test_c_metric_majority_win():
    # a is better on 24 of 30 minimized objectives
    a_series = {}
    b_series = {}
    for j in range(30):
        better = 1.0 if j < 24 else 3.0
        a_series[f"o{j}"] = ("minimize", 10.0, [better])
        b_series[f"o{j}"] = ("minimize", 10.0, [2.0])
    ab, ba = two_way(a_series, b_series)
    assert ab == pytest.approx(0.8)
    assert ba == pytest.approx(0.2)


def test_c_metric_tie_counts_for_both():
    series = {"o0": ("minimize", 5.0, [1.0, 2.0])}
    ab, ba = two_way(series, series)
    assert ab == 1.0
    assert ba == 1.0


def test_c_metric_total_never_below_one():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a_series = {}
        b_series = {}
        for j in range(6):
            direction = "minimize" if j % 2 else "maximize"
            a_series[f"o{j}"] = (direction, 5.0, list(rng.uniform(0, 4, size=4)))
            b_series[f"o{j}"] = (direction, 5.0, list(rng.uniform(0, 4, size=4)))
        ab, ba = two_way(a_series, b_series)
        assert ab + ba >= 1.0 - 1e-12


def test_c_metric_requires_matching_objectives():
    a = multi_log({"o0": ("minimize", 5.0, [1.0])})
    b = multi_log({"o1": ("minimize", 5.0, [1.0])})
    with pytest.raises(ValueError):
        c_metric(a, b)


# -- distance to best ------------------------------------------------------


def test_g_distance_best_everywhere_is_zero():
    logs = {
        "good": multi_log({"o0": ("minimize", 5.0, [1.0]),
                           "o1": ("maximize", 5.0, [9.0])}, approach="good"),
        "bad": multi_log({"o0": ("minimize", 5.0, [2.0]),
                          "o1": ("maximize", 5.0, [4.0])}, approach="bad"),
    }
    assert g_distance(logs, "good") == 0.0
    assert g_distance(logs, "bad") > 0.0


def test_g_distance_hand_check():
    # single minimized objective: averages 1 (best) and 2 (also the scale)
    logs = {
        "a": obj_log([1.0], approach="a"),
        "b": obj_log([2.0], approach="b"),
    }
    assert g_distance(logs, "b") == pytest.approx(0.5)
    assert g_distance(logs, "a") == 0.0


def test_g_distance_identical_logs_all_zero():
    logs = {
        "a": obj_log([1.5, 2.5], approach="a"),
        "b": obj_log([1.5, 2.5], approach="b"),
    }
    assert g_distance(logs, "a") == 0.0
    assert g_distance(logs, "b") == 0.0


def test_g_distance_unknown_target_rejected():
    with pytest.raises(KeyError):
        g_distance({"a": obj_log([1.0])}, "missing")


# -- overhead --------------------------------------------------------------


def lat_log(seconds):
    return RunLog(
        approach="x",
        latency_records=[LatencyRecord(i, s) for i, s in enumerate(seconds)],
    )


def test_overhead_reports_extremes():
    assert overhead(lat_log([1.2, 50.3, 7.0])) == (1.2, 50.3)


def test_overhead_single_sample():
    assert overhead(lat_log([1.2])) == (1.2, 1.2)


def test_overhead_empty_log_rejected():
    with pytest.raises(ValueError):
        overhead(RunLog(approach="x"))


# -- interval-order invariance ---------------------------------------------


def test_metrics_ignore_record_order():
    rng = np.random.default_rng(41)
    values = list(rng.uniform(0, 4, size=12))
    pairs = [(float(p), float(d)) for p, d in rng.uniform(1, 40, size=(12, 2))]
    straight_v = obj_log(values)
    straight_p = prov_log(pairs)

    perm = rng.permutation(12)
    shuffled_v = RunLog(
        approach="x",
        objective_records=[straight_v.objective_records[i] for i in perm],
    )
    shuffled_p = RunLog(
        approach="x",
        provision_records=[straight_p.provision_records[i] for i in perm],
    )
    assert violation_pct(shuffled_v, "s1.rt") == pytest.approx(
        violation_pct(straight_v, "s1.rt")
    )
    for mode in ("over", "under"):
        assert provisioning_pct(shuffled_p, mode) == pytest.approx(
            provisioning_pct(straight_p, mode)
        )

    # run logs interleave objectives interval by interval; shuffle that too
    series = {
        name: {
            f"o{j}": ("minimize" if j % 2 else "maximize", 5.0, list(rng.uniform(0, 4, size=6)))
            for j in range(5)
        }
        for name in ("a", "b", "c")
    }
    shuffled = {}
    for name, by_objective in series.items():
        records = [
            ObjectiveRecord(i, oid, float(values[i]), threshold, direction)
            for i in range(6)
            for oid, (direction, threshold, values) in by_objective.items()
        ]
        perm = rng.permutation(len(records))
        shuffled[name] = RunLog(approach=name, objective_records=[records[i] for i in perm])
    straight = {name: multi_log(s, approach=name) for name, s in series.items()}
    for x in series:
        for y in series:
            assert c_metric(shuffled[x], shuffled[y]) == c_metric(straight[x], straight[y])
        assert g_distance(shuffled, x) == pytest.approx(g_distance(straight, x))
    assert 0 < c_metric(straight["a"], straight["b"]) < 1


# -- tail, merge, and persistence ------------------------------------------


def test_tail_drops_warmup_intervals():
    log = obj_log([9.0, 9.0, 1.0, 1.0], threshold=2.0)
    tail = log.tail(2)
    assert len(tail.objective_records) == 2
    assert violation_pct(tail, "s1.rt") == 0.0


def test_merge_runs_averages_values():
    a = obj_log([1.0, 3.0])
    b = obj_log([3.0, 5.0])
    merged = merge_runs([a, b])
    assert [r.value for r in merged.objective_records] == [2.0, 4.0]


def test_merge_runs_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        merge_runs([obj_log([1.0]), obj_log([1.0, 2.0])])
    shifted = RunLog(
        approach="x",
        objective_records=[ObjectiveRecord(5, "s1.rt", 1.0, 2.0, "minimize")],
    )
    with pytest.raises(ValueError):
        merge_runs([obj_log([1.0]), shifted])


def test_runlog_csv_round_trip(tmp_path):
    log = obj_log([1.25, 3.5])
    log.provision_records = [ProvisionRecord(0, "v1.cpu", 20.0, 18.5, "cpu")]
    log.latency_records = [LatencyRecord(1, 0.125)]
    path = tmp_path / "intervals.csv"
    write_runlog(path, log)
    back = read_runlog(path, approach="x")
    assert [r.value for r in back.objective_records] == [1.25, 3.5]
    assert back.objective_records[0].direction == "minimize"
    assert back.provision_records[0].demand == 18.5
    assert back.latency_records[0].seconds == 0.125
    assert violation_pct(back, "s1.rt") == violation_pct(log, "s1.rt")
