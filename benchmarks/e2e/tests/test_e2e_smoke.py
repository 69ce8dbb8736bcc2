"""Tier-1 smoke test of the e2e benchmark: all four workloads at ``--smoke``
sizes, untraced and traced, in this process (a few seconds in total)."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(E2E))
sys.path[:0] = [path for path in (os.path.join(ROOT, "src"), E2E) if path not in sys.path]

from e2ebench import compare, datagen, harness, spec, tracing  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

EPISODES = 60


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """One untraced and one traced run of every workload, and the seams
    as they were before and are after."""
    out = str(tmp_path_factory.mktemp("e2e"))
    before = [vars(owner)[attr] for owner, attr in tracing.seam_targets()]
    runs = {
        (name, traced): harness.run(
            workload, seed=7, seconds=0, trace=traced, sizing=spec.SMOKE,
            out_dir=out, episodes=EPISODES,
        )
        for name, workload in WORKLOADS.items()
        for traced in (False, True)
    }
    after = [vars(owner)[attr] for owner, attr in tracing.seam_targets()]
    return runs, before, after, out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_reported_and_nothing_failed(records, name):
    runs = records[0]
    untraced, traced = runs[name, False], runs[name, True]
    for metric in spec.END_TO_END:
        reported = untraced["end_to_end"][metric.name]
        assert reported["unit"] == metric.unit
        # eight runs share this process and its one high-water mark of RSS
        assert reported["value"] > 0 or metric.name == "peak_rss_mb", metric.name
        assert reported["samples"] >= 1
    for metric in spec.PER_LAYER:
        assert traced["per_layer"][metric.name]["unit"] == metric.unit
    for record in (untraced, traced):
        assert record["failures"] == []
        assert record["oracle"]["mismatches"] == []
        assert record["oracle"]["checks"] > 0
        assert record["failed_share"] == 0 and record["correct"]
        assert record["episodes"]["timed"] == EPISODES * WORKLOADS[name].clients


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_figures_cover_the_whole_measured_phase(records, name):
    untraced = records[0][name, False]
    figures = untraced["end_to_end"]
    episodes = untraced["episodes"]
    # nothing is dropped: a stall anywhere in the phase is in every figure
    assert figures["tool_call_p50_ms"]["samples"] == episodes["timed_calls"]
    assert figures["episode_p95_ms"]["samples"] == episodes["timed"]
    # reported at reference speed: times the run's speed it is the plain reading
    plain = episodes["finished_calls"] / untraced["timed_wall_s"]
    assert 0.5 < figures["tool_calls_per_s"]["value"] / untraced["speed"] / plain < 2
    assert 0.2 < untraced["speed"] < 20


def test_each_stretch_is_divided_by_the_speed_of_the_passes_around_it():
    rec = harness.Recorder(0, {"select": 0}, probe=None)
    nominal = spec.PROBE_NOMINAL_NS
    # three passes around two stretches of two one-call episodes each: the
    # machine ran at half speed during the first stretch, at nominal then
    rec.pass_ns.extend([2 * nominal, 2 * nominal, 0])
    rec.pass_began.extend([0, 10_000, 30_000])
    rec.pass_ended.extend([1_000, 11_000, 31_000])
    rec.pass_calls.extend([0, 2, 4])
    rec.pass_episodes.extend([0, 2, 4])
    rec.call_ns.extend([1000, 1000, 500, 500])
    rec.episode_ns.extend([1200, 1200, 600, 600])
    calls, episodes, loop_ns = rec.at_reference_speed()
    assert calls == [500, 500, 500, 500]
    assert episodes == [600, 600, 600, 600]
    # the passes themselves are not the workload's time
    assert loop_ns == (10_000 - 1_000) / 2 + (30_000 - 11_000) / 1


def test_blocks_hold_every_kind_in_exact_proportion():
    mix = {"a": 3, "b": 1, "c": 6}
    kinds = datagen.blocks(datagen.rng_for("w", 1, "t"), mix, 95, lead="b")
    assert len(kinds) == 95
    for first in range(0, 90, 10):
        block = kinds[first:first + 10]
        assert block[0] == "b"
        assert {kind: block.count(kind) for kind in mix} == mix
    assert kinds != datagen.blocks(datagen.rng_for("w", 2, "t"), mix, 95, lead="b")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_attribution_sums_to_traced_time(records, name):
    traced = records[0][name, True]
    layers = traced["per_layer"]
    shares = sum(row["share"] for row in traced["attribution"])
    assert shares == pytest.approx(1.0, abs=1e-9)
    residual = next(
        (row["share"] for row in traced["attribution"] if row["layer"] == "client"), 0.0
    )
    assert residual == pytest.approx(layers["trace.residual_share"]["value"], abs=1e-9)
    assert 0 <= residual < 0.5  # loose: CI boxes stall; full runs see ~2%
    assert len(traced["top_layers"]) == 3
    assert os.path.getsize(os.path.join(records[3], f"{name}.spans.jsonl")) > 0


def test_layer_counts_tell_the_workloads_apart(records):
    runs = records[0]
    layer = {name: runs[name, True]["per_layer"] for name in WORKLOADS}
    value = lambda name, metric: layer[name][metric]["value"]  # noqa: E731

    # every accepted SQL tool call parses twice; begin/commit/rollback once
    oltp = layer["oltp_durable"]
    assert oltp["minidb.parser.calls"]["value"] == (
        oltp["minidb.session.calls"]["value"] + oltp["core.verification.calls"]["value"]
    )
    assert 1.0 < oltp["minidb.parser.calls_per_statement"]["value"] < 2.0
    assert oltp["core.verification.rejected"]["value"] > 0
    assert oltp["minidb.engines.checkpoints"]["value"] >= 1
    assert oltp["minidb.engines.wal_fsyncs"]["value"] == 0
    assert oltp["minidb.engines.recovery_ms"]["value"] > 0

    assert value("service_contended", "minidb.engines.wal_fsyncs") == value(
        "service_contended", "minidb.engines.wal_appends"
    ) > 0
    assert value("service_contended", "service.dispatcher.calls") > 0
    assert value("service_contended", "service.locks.upgrades") > 0
    for name in ("oltp_durable", "context_retrieval", "analytic_proxy"):
        assert value(name, "service.locks.waits") == 0
        assert value(name, "service.dispatcher.calls") == 0
    for name in ("context_retrieval", "analytic_proxy"):
        assert value(name, "minidb.engines.wal_appends") == 0

    assert value("context_retrieval", "retrieval.cache.lookups") == EPISODES
    assert value("context_retrieval", "retrieval.cache.misses") > 0
    assert value("context_retrieval", "retrieval.cache.rebuilds") > 0
    assert value("context_retrieval", "core.transaction.calls") == 0
    assert value("analytic_proxy", "core.proxy.units") > 0
    assert value("analytic_proxy", "mltools.busy_ms") > 0
    assert value("analytic_proxy", "minidb.parser.calls_per_statement") == 2.0


def test_wrappers_are_restored(records):
    _, before, after, _ = records
    assert before and all(was is now for was, now in zip(before, after))


def test_compare_flags_a_regression_and_noise():
    def result(latencies):
        series = {m.name: {"values": [1.0, 1.0, 1.0]} for m in spec.END_TO_END}
        series["tool_call_p50_ms"] = {"values": latencies}
        return {"workloads": {"w": {"end_to_end": series, "failed_share": [0.0]}}}

    verdict = lambda a, b: next(  # noqa: E731
        row["verdict"] for row in compare.compare(result(a), result(b))[0]
        if row["metric"] == "tool_call_p50_ms"
    )
    assert verdict([1.0, 1.01, 1.02], [1.02, 1.03, 1.04]) == "ok"
    assert verdict([1.0, 1.01, 1.02], [1.3, 1.31, 1.32]) == "regression"
    assert verdict([1.0, 1.5, 2.0], [1.2, 1.7, 2.2]) == "unresolved"
    assert compare.compare(result([1.0] * 3), result([1.3] * 3))[1] is True
