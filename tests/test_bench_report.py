"""The three guards of ``tools/bench_report.py``, on synthetic documents.

The throughput guard matches a run to the reference entry of the same
workload (seed, scale and day overrides) and fails below the floor; the
build-scaling guard compares build accounts/s at the sweep's largest
and smallest scales; the sanitizer guard holds the campaign-stage
overhead, timed in interleaved untraced/traced pairs, to its budget.
``main`` measures each scale once, and each sweep row reports the
campaign's wave entries and the run's peak RSS.  No study runs here.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_report.py"
_spec = importlib.util.spec_from_file_location("bench_report", _TOOL)
bench_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_report)
GuardError = bench_report.GuardError


def _payload(events_per_second, seed=2017, scale=0.001,
             milking_days=None, campaign_days=None):
    return {"seed": seed, "scale": scale, "milking_days": milking_days,
            "campaign_days": campaign_days,
            "stages": {"campaign": {
                "events_per_second": events_per_second}}}


def _run(events_per_second, **workload):
    """A freshly benchmarked document, as ``main`` writes it."""
    payload = _payload(events_per_second, **workload)
    meta = {key: payload[key] for key in bench_report.WORKLOAD_KEYS}
    return {"meta": meta, "current": payload}


REFERENCE = {
    "meta": {"scale": 0.01, "seed": 2017, "milking_days": None,
             "campaign_days": None},
    # Written before payloads carried their day overrides.
    "current": {"scale": 0.01, "seed": 2017,
                "stages": {"campaign": {"events_per_second": 500.0}}},
    "sweep": [_payload(1000.0),
              _payload(2000.0, milking_days=6, campaign_days=20)],
}


def test_throughput_guard_passes_at_or_above_the_floor():
    floor = 1000.0 * (1.0 - bench_report.GUARD_TOLERANCE)
    for reading in (floor, 1000.0, 1500.0):
        verdict = bench_report.check_campaign_regression(
            _run(reading), REFERENCE)
        assert verdict.startswith("guard ok")
    assert bench_report.check_campaign_regression(
        _run(400.0, scale=0.01), REFERENCE).startswith("guard ok")


def test_throughput_guard_fails_below_the_floor():
    floor = 1000.0 * (1.0 - bench_report.GUARD_TOLERANCE)
    with pytest.raises(GuardError, match="regression"):
        bench_report.check_campaign_regression(_run(floor - 1), REFERENCE)
    with pytest.raises(GuardError, match="regression"):
        bench_report.check_campaign_regression(
            _run(399.0, scale=0.01), REFERENCE)


def test_throughput_guard_needs_a_reference_entry():
    with pytest.raises(GuardError, match="no entry for .*scale=0.002"):
        bench_report.check_campaign_regression(
            _run(1000.0, scale=0.002), REFERENCE)


def test_throughput_guard_matches_the_day_overrides():
    # 1,000 events/s passes against the default-days entry but not
    # against the 2,000 events/s entry of the shortened schedule.
    with pytest.raises(GuardError, match="regression"):
        bench_report.check_campaign_regression(
            _run(1000.0, milking_days=6, campaign_days=20), REFERENCE)
    with pytest.raises(GuardError, match="no entry for .*campaign_days=None"):
        bench_report.check_campaign_regression(
            _run(1000.0, milking_days=6), REFERENCE)


def test_throughput_guard_matches_the_seed():
    with pytest.raises(GuardError, match="no entry for seed=7 "):
        bench_report.check_campaign_regression(
            _run(1000.0, seed=7), REFERENCE)


def _swept(*build_rates):
    """A document whose sweep has these (scale, build accounts/s)."""
    return {"sweep": [{"scale": scale,
                       "stages": {"build": {"events_per_second": rate}}}
                      for scale, rate in build_rates]}


def test_build_scaling_guard_passes_at_or_above_the_floor():
    floor = bench_report.BUILD_SCALING_FLOOR
    for ratio in (floor, 1.0, 1.5):
        # Sweep order does not matter: largest scale against smallest.
        verdict = bench_report.check_build_scaling(
            _swept((0.1, 10_000.0 * ratio), (0.001, 10_000.0),
                   (0.01, 1.0)))
        assert verdict.startswith("guard ok")


def test_build_scaling_guard_fails_below_the_floor():
    # The sweep recorded while every recruit copied the token DB: 891
    # accounts/s at scale 0.1 against 11,443 at 0.001.
    with pytest.raises(GuardError, match="build scaling regression"):
        bench_report.check_build_scaling(
            _swept((0.001, 11_443.0), (0.01, 12_316.0), (0.1, 891.0)))


def test_build_scaling_guard_needs_two_sweep_scales():
    for document in (_swept((0.01, 11_443.0)),
                     _swept((0.01, 11_443.0), (0.01, 891.0)), {}):
        assert bench_report.check_build_scaling(document).startswith(
            "guard skipped")
    with pytest.raises(GuardError, match="build stage missing"):
        bench_report.check_build_scaling(
            {"sweep": [{"scale": 0.001, "stages": {}},
                       {"scale": 0.1, "stages": {}}]})


def test_help_renders_the_guard_thresholds(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_report.main(["--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "below 50% of the smallest scale's" in out
    assert "drop of more than 20%" in out


def _sanitized(overhead):
    return {"sanitizer": {"overhead": {"campaign": overhead}}}


def test_sanitizer_guard_holds_the_overhead_budget():
    budget = bench_report.SANITIZER_BUDGET
    for overhead in (-0.02, 0.0, budget):
        verdict = bench_report.check_sanitizer_overhead(_sanitized(overhead))
        assert verdict.startswith("guard ok")
    with pytest.raises(GuardError, match="overhead regression"):
        bench_report.check_sanitizer_overhead(_sanitized(budget + 0.01))


def test_sanitizer_guard_times_interleaved_pairs(monkeypatch):
    """The host's speed swings twofold from pair to pair, far more than
    the sanitizer's true 8% overhead.  Each pair times its untraced and
    traced runs back to back, so the verdict is the true overhead,
    where an untraced run at the first pair's host speed against a
    traced run at the last pair's would read -24.4%."""
    true_overhead = 0.08
    slowdowns = (1.0, 2.0, 0.7)  # host speed during each pair
    calls = []

    def fake_measure(repeats, sanitize=False, **workload):
        assert repeats == 1
        slowdown = slowdowns[len(calls) // 2]
        calls.append(sanitize)
        seconds = 10.0 * slowdown * (1.0 + true_overhead * sanitize)
        return {"total_seconds": seconds, "sanitizer_events": 7,
                "stages": {"campaign": {"seconds": seconds}}}

    monkeypatch.setattr(bench_report, "_measure", fake_measure)
    section = bench_report._sanitizer_section(
        1, scale=0.002, seed=2017, milking_days=6, campaign_days=20)
    assert calls == [False, True] * 3
    assert section["pair_overheads"]["campaign"] == [true_overhead] * 3
    assert section["overhead"]["campaign"] == true_overhead
    assert bench_report.check_sanitizer_overhead({"sanitizer": section}) == (
        "guard ok: sanitizer campaign-stage overhead +8.0% (budget 10%)")


def test_sanitizer_guard_needs_a_sanitizer_section():
    with pytest.raises(GuardError, match="re-run with --sanitize"):
        bench_report.check_sanitizer_overhead({"current": {}})


def test_sweep_rows_report_campaign_wave_entries():
    # Each sweep row reports the campaign stage's wave entries and
    # entries/s next to its rows/s: the wave_size histogram's campaign
    # sum over the stage's seconds.
    histogram = {"count": 5, "p50": 512, "p95": 2048, "p99": 2048}
    payload = {
        "scale": 0.01, "total_seconds": 30.0, "total_log_rows": 900,
        "rows_per_second": 30.0, "peak_rss_mb": 93.6,
        "stages": {"campaign": {"seconds": 20.0, "events": 400,
                                "events_per_second": 20.0,
                                "event_unit": "api requests logged"}},
        "wave_histograms": {"wave_size": {
            "campaign": {**histogram, "sum": 3_000_000},
            "milking": {**histogram, "sum": 7_000}}},
    }
    assert bench_report.campaign_entries(payload) == (3_000_000, 150_000.0)
    text = bench_report.render({"current": payload, "sweep": [payload]})
    assert "campaign 20 rows/s, 3,000,000 entries (150,000/s)" in text
    # The run's peak RSS is on the current line and on each sweep row.
    current, *_, sweep_row = text.splitlines()
    assert current.endswith("peak RSS 93.6 MiB):")
    assert sweep_row.endswith("peak RSS 93.6 MiB")
    # A payload without the histogram reads no entries.
    assert bench_report.campaign_entries({"stages": {}}) == (0, 0.0)


def test_sweep_reuses_the_current_measurement(tmp_path, monkeypatch):
    """A sweep scale equal to --scale is the ``current`` run, not a
    second study of the same workload."""
    measured = []

    def fake_measure(repeats, scale, **workload):
        measured.append(scale)
        build = {"seconds": 1.0, "events": 10, "event_unit": "accounts",
                 "events_per_second": 10.0}
        return {"scale": scale, **workload, "total_seconds": 1.0,
                "rows_per_second": 10.0, "total_log_rows": 10,
                "peak_rss_mb": 50.0, "stages": {"build": build},
                "wave_histograms": {}}

    monkeypatch.setattr(bench_report, "_measure", fake_measure)
    out = tmp_path / "bench.json"
    assert bench_report.main(["--scale", "0.002", "--sweep", "0.002,0.03",
                              "--out", str(out)]) == 0
    assert measured == [0.002, 0.03]
    document = json.loads(out.read_text())
    assert [entry["scale"] for entry in document["sweep"]] == [0.002, 0.03]
    assert document["sweep"][0] == document["current"]



def test_each_run_records_its_peak_rss(monkeypatch):
    """``run_benchmark`` reads the process's peak RSS (KiB on Linux)
    once the study has run, and stores it in MiB."""
    import repro.experiments.runner as runner
    from repro.telemetry import TELEMETRY

    usage = SimpleNamespace(ru_maxrss=0)

    def fake_study(config, timer):
        usage.ru_maxrss = 96_000

    timer = SimpleNamespace(
        counters={"build.accounts": 0, "build.log_rows": 0,
                  "milking.log_rows": 0, "campaign.log_rows": 0},
        stages={}, seconds=lambda name: 0.0)
    monkeypatch.setattr(runner, "run_full_study", fake_study)
    monkeypatch.setattr(bench_report.resource, "getrusage",
                        lambda who: usage)
    monkeypatch.setattr(TELEMETRY, "stages", timer)
    # The run switches the process-global plane on: put its flag back.
    monkeypatch.setattr(TELEMETRY, "enabled", TELEMETRY.enabled)
    payload = bench_report.run_benchmark(scale=0.002, seed=2017)
    assert payload["peak_rss_mb"] == 93.8
