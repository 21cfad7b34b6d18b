"""Tests of the benchmark's own machinery: the import adapter, the output
checks and the self-time arithmetic.  They do not import rfdna."""

import os
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_adapter  # noqa: E402
import bench_checks  # noqa: E402
import bench_trace  # noqa: E402


def _package(root, name, files):
    pkg = root / name
    pkg.mkdir()
    for filename, text in files.items():
        (pkg / filename).write_text(textwrap.dedent(text))


@pytest.fixture
def on_path(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(tmp_path))
    yield tmp_path
    for name in [n for n in sys.modules if n.startswith("pbfake_")]:
        del sys.modules[name]


# mirrors the rfdna layout: the package imports harness, whose dataclass
# defaults to a shared instance of a non-frozen channel dataclass
_UNHASHABLE_DEFAULT = {
    "__init__.py": "from .harness import Config\n",
    "channel.py": """
        from dataclasses import dataclass

        @dataclass
        class ChannelProfile:
            n_paths: int

        SHARED = ChannelProfile(2)
        """,
    "harness.py": """
        from dataclasses import dataclass
        from .channel import SHARED, ChannelProfile

        @dataclass
        class Config:
            profile: ChannelProfile = SHARED
        """,
}


class TestImportAdapter:
    def test_no_op_when_plain_import_succeeds(self, on_path):
        _package(on_path, "pbfake_ok", {"__init__.py": "VALUE = 1\n"})
        module, engaged = bench_adapter.import_package("pbfake_ok")
        assert engaged is False
        assert module is sys.modules["pbfake_ok"]
        assert module.VALUE == 1

    def test_engages_only_on_the_mutable_default_error(self, on_path):
        _package(on_path, "pbfake_bad", _UNHASHABLE_DEFAULT)
        module, engaged = bench_adapter.import_package("pbfake_bad")
        # dataclasses reject unhashable defaults from Python 3.11 on
        assert engaged is (sys.version_info >= (3, 11))
        assert module.Config().profile is module.channel.SHARED
        assert module.harness.ChannelProfile is module.channel.ChannelProfile

    def test_other_value_errors_propagate(self, on_path):
        _package(on_path, "pbfake_raises", {"__init__.py": "raise ValueError('boom')\n"})
        with pytest.raises(ValueError, match="boom"):
            bench_adapter.import_package("pbfake_raises")


def _estimator_csv(rows=None, n=40):
    rows = rows or {
        "LS": (0.06, 0.01, 0.006, 0.005),
        "MMSE": (0.03, 0.009, 0.0057, 0.0049),
        "NM": (0.02, 0.002, 0.0002, 0.00002),
    }
    lines = [bench_checks.EST_HEADER]
    for kind, values in rows.items():
        for snr, value in zip((0.0, 10.0, 20.0, 30.0), values):
            lines.append(f"{kind}, {snr!r}, {value!r}, {n}")
    return "\n".join(lines) + "\n"


GRID = (0.0, 10.0, 20.0, 30.0)


class TestEstimatorChecks:
    def test_valid_output_passes(self):
        assert bench_checks.check_estimator_output(_estimator_csv(), GRID, 40) == []

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.replace("0.002", "nan"),
        lambda text: text.replace("0.0002, 40", "0.0002, 39"),
        lambda text: "\n".join(text.splitlines()[:-1]) + "\n",
        lambda text: text.replace("estimator,", "kind,"),
        lambda text: text.replace("NM, 10.0, 0.002", "NM, 10.0, 0.02"),
        lambda text: text.replace("MMSE, 0.0, 0.03", "MMSE, 0.0, 0.07"),
    ], ids=["non-finite", "trial-count", "missing-row", "header", "nm-above-ls",
            "mmse-above-ls-at-0db"])
    def test_corrupted_output_fails(self, corrupt):
        assert bench_checks.check_estimator_output(corrupt(_estimator_csv()), GRID, 40)


def _classify_files(counts=((3, 1), (2, 2))):
    labels = ("r1", "r2")
    header = "snr_db, true_radio, declared_r1, declared_r2"
    confusion = [header] + [f"9.0, {rid}, {row[0]}, {row[1]}"
                            for rid, row in zip(labels, counts)]
    accuracy = [bench_checks.ACCURACY_HEADER]
    accuracy += [f"9.0, {rid}, {100.0 * counts[i][i] / sum(counts[i])!r}"
                 for i, rid in enumerate(labels)]
    return {"accuracy.csv": ("\n".join(accuracy) + "\n").encode(),
            "confusion_snr9.csv": ("\n".join(confusion) + "\n").encode(),
            "accuracy_vs_snr.dat": b"# snr_db  mean_percent_correct\n9 62.5\n"}


class TestClassifyChecks:
    def test_valid_output_passes(self):
        assert bench_checks.check_classify_output(_classify_files(), (9.0,), ["r1", "r2"],
                                                  2, 2) == []

    def test_wrong_confusion_total_fails(self):
        files = _classify_files(counts=((3, 1), (2, 1)))
        errors = bench_checks.check_classify_output(files, (9.0,), ["r1", "r2"], 2, 2)
        assert any("totals 3, expected 4" in e for e in errors)

    def test_missing_accuracy_row_fails(self):
        files = _classify_files()
        files["accuracy.csv"] = b"\n".join(files["accuracy.csv"].splitlines()[:-1]) + b"\n"
        assert bench_checks.check_classify_output(files, (9.0,), ["r1", "r2"], 2, 2)

    def test_accuracy_disagreeing_with_diagonal_fails(self):
        files = _classify_files()
        files["accuracy.csv"] = files["accuracy.csv"].replace(b"75.0", b"70.0")
        assert bench_checks.check_classify_output(files, (9.0,), ["r1", "r2"], 2, 2)

    def test_repeat_run_must_match_bytes(self):
        first = _classify_files()
        assert bench_checks.compare_outputs(first, dict(first)) == []
        changed = dict(first, **{"confusion_snr9.csv": first["confusion_snr9.csv"] + b" "})
        assert bench_checks.compare_outputs(first, changed) == [
            "confusion_snr9.csv differs from the first run's bytes"]
        assert bench_checks.compare_outputs(first, {})


class TestSelfTime:
    def test_synthetic_span_tree(self):
        Span = bench_trace.Span
        spans = [
            Span("cli.main", 0.0, 10.0, -1),          # 0
            Span("harness.run", 1.0, 9.0, 0),         # 1
            Span("chanest.nm_estimate", 2.0, 5.0, 1),  # 2
            Span("chanest.minimize", 2.5, 3.5, 2),    # 3
            Span("chanest.minimize", 3.5, 4.0, 2),    # 4
            Span("fingerprint.gabor", 6.0, 8.0, 1),   # 5
        ]
        assert bench_trace.self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 1.0, 0.5, 2.0])
        assert bench_trace.self_time_by_layer(spans) == pytest.approx(
            {"cli": 2.0, "harness": 3.0, "chanest": 3.0, "fingerprint": 2.0})

    def test_overlapping_children_are_counted_once(self):
        Span = bench_trace.Span
        spans = [Span("a.x", 0.0, 10.0, -1), Span("b.y", 1.0, 6.0, 0), Span("b.z", 4.0, 12.0, 0)]
        assert bench_trace.self_times(spans)[0] == pytest.approx(1.0)

    def test_tracer_records_nesting_and_restores(self):
        module = type(sys)("pbfake_traced")
        module.inner = lambda v: v + 1
        module.outer = lambda v: module.inner(v) * 2
        tracer = bench_trace.Tracer()
        tracer.wrap(module, "outer", "a.outer")
        tracer.wrap(module, "inner", "b.inner",
                    lambda t, args, kwargs, result, exc: t.count("seen", result))
        assert module.outer(1) == 4
        tracer.unwrap_all()
        assert [s.name for s in tracer.spans] == ["a.outer", "b.inner"]
        assert [s.parent for s in tracer.spans] == [-1, 0]
        assert tracer.counters == {"seen": 2}
        assert module.outer.__name__ == "<lambda>" and len(tracer.durations("a.outer")) == 1


def test_tail_is_the_eleventh_largest_sample():
    values = list(range(1, 81))
    assert bench_trace.tail(values) == (70.0, 87.5)
    assert bench_trace.tail(values[:10]) == (0.0, 0.0)
