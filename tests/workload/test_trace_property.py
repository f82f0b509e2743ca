"""Property tests: trace analysis invariants over arbitrary runs.

Whatever mix of committed/failed/in-flight transactions a run produced:

* :func:`throughput_timeline` windows partition the committed events — the
  window totals sum exactly to the committed count;
* :func:`queue_depth_estimate` never reports a negative depth, and a run
  in which every submitted transaction committed drains back to zero;
* :func:`export_csv` / :func:`import_csv` round-trip the statuses exactly,
  including the derived ``succeeded``/``latency`` views;
* :func:`percentile` is ``numpy.percentile``, bit for bit (numpy is only
  the test's reference: the package itself never imports it).
"""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import TxStatus, ValidationCode
from repro.workload.trace import (
    export_csv,
    import_csv,
    latency_percentiles,
    percentile,
    queue_depth_estimate,
    throughput_timeline,
    trace_rows,
)

times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32)
windows = st.floats(min_value=0.05, max_value=30.0, allow_nan=False)


@st.composite
def statuses(draw, committed=None) -> list:
    """A run's worth of TxStatus records.

    ``committed=True`` forces every transaction to have both timestamps
    (a fully-resolved run); ``None`` mixes committed, failed-at-commit,
    and never-resolved transactions.
    """

    count = draw(st.integers(min_value=0, max_value=40))
    result = []
    for index in range(count):
        submit = draw(times)
        resolved = True if committed else draw(st.booleans())
        commit = submit + draw(times) if resolved else None
        code = (
            ValidationCode.VALID
            if (committed or draw(st.booleans()))
            else ValidationCode.MVCC_READ_CONFLICT
        )
        result.append(
            TxStatus(
                tx_id=f"tx{index}",
                code=code,
                block_num=draw(st.one_of(st.none(), st.integers(0, 99))),
                tx_num=index,
                submit_time=submit,
                commit_time=commit,
            )
        )
    return result


class TestThroughputTimeline:
    @given(run=statuses(), window=windows)
    def test_window_totals_equal_committed_count(self, run, window):
        timeline = throughput_timeline(run, window_s=window, successful_only=False)
        committed = sum(1 for s in run if s.commit_time is not None)
        total = round(sum(rate * window for _start, rate in timeline))
        assert total == committed

    @given(run=statuses(), window=windows)
    def test_successful_only_counts_successes(self, run, window):
        timeline = throughput_timeline(run, window_s=window, successful_only=True)
        committed = sum(
            1 for s in run if s.commit_time is not None and s.succeeded
        )
        assert round(sum(rate * window for _start, rate in timeline)) == committed

    @given(run=statuses(), window=windows)
    def test_window_starts_strictly_increase(self, run, window):
        timeline = throughput_timeline(run, window_s=window, successful_only=False)
        starts = [start for start, _rate in timeline]
        assert starts == sorted(set(starts))


class TestQueueDepthEstimate:
    @given(run=statuses(), window=windows)
    def test_depth_never_negative(self, run, window):
        for _time, depth in queue_depth_estimate(run, window_s=window):
            assert depth >= 0

    @given(run=statuses(committed=True), window=windows)
    def test_fully_committed_run_ends_at_zero(self, run, window):
        samples = queue_depth_estimate(run, window_s=window)
        if samples:
            assert samples[-1][1] == 0

    @given(run=statuses(), window=windows)
    def test_sample_times_monotone(self, run, window):
        samples = queue_depth_estimate(run, window_s=window)
        assert all(a[0] <= b[0] for a, b in zip(samples, samples[1:]))


class TestCsvRoundTrip:
    @given(run=statuses())
    def test_export_import_round_trips(self, run, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "nested" / "dir" / "trace.csv"
        written = export_csv(path, run)
        assert written == len(run)
        loaded = import_csv(path)
        assert trace_rows(loaded) == trace_rows(run)
        by_id = {s.tx_id: s for s in run}
        for status in loaded:
            original = by_id[status.tx_id]
            assert status == original
            assert status.succeeded == original.succeeded
            assert status.latency == original.latency


class TestPercentile:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # ties
            ),
            min_size=1,
            max_size=60,
        ),
        st.lists(
            st.one_of(
                st.sampled_from([0, 50, 90, 95, 99, 100, 99.9]),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_numpy_bit_for_bit(self, values, quantiles):
        numpy = pytest.importorskip("numpy")
        ordered = sorted(values)
        expected = numpy.percentile(numpy.asarray(values), quantiles)
        got = [percentile(ordered, q) for q in quantiles]
        assert [x.hex() for x in got] == [float(y).hex() for y in expected]

    @given(run=statuses(committed=True))
    def test_latency_percentiles_are_ordered(self, run):
        result = latency_percentiles(run, successful_only=False)
        if run:
            assert result[50] <= result[90] <= result[95] <= result[99]

    @pytest.mark.parametrize("q", [-0.1, 100.5])
    def test_out_of_range_rejected(self, q):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], q)


def test_the_package_does_not_import_numpy():
    """``repro.workload`` loads into the harness, every in-process workload
    and both socket peer processes; numpy would cost each ≈ 100 ms and
    ≈ 14 MB for one percentile."""

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import repro.workload, repro.net; sys.exit('numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "numpy was imported"
