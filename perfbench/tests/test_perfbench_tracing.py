"""Self time from nested wrapper spans, and clean uninstall."""

import time

from perfbench.tracing import Tracer, diff


class _Layer:
    def outer(self, inner):
        time.sleep(0.02)
        return inner.work()

    def work(self):
        time.sleep(0.03)
        return 42

    @staticmethod
    def helper(x):
        return x + 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.install(_Layer, "outer", "layer.outer")
    tracer.install(_Layer, "work", "layer.work")
    try:
        layer = _Layer()
        assert layer.outer(layer) == 42
    finally:
        tracer.uninstall()
    spans = tracer.snapshot()["spans"]
    outer, work = spans["layer.outer"], spans["layer.work"]
    assert outer["calls"] == work["calls"] == 1
    assert outer["wall_s"] >= work["wall_s"] + 0.015
    assert abs(outer["self_wall_s"] - (outer["wall_s"] - work["wall_s"])) < 1e-9
    assert work["self_wall_s"] == work["wall_s"]


def test_install_keeps_static_methods_static_and_uninstall_restores():
    tracer = Tracer()
    original = _Layer.__dict__["helper"]
    tracer.install(_Layer, "helper", "layer.helper")
    tracer.install(_Layer, "work", "layer.work", counted=True)
    assert _Layer.helper(1) == 2 and _Layer().helper(1) == 2
    assert _Layer().work() == 42
    snap = tracer.snapshot()
    assert snap["counts"] == {"layer.work": 1}
    assert snap["spans"]["layer.helper"]["calls"] == 2
    tracer.uninstall()
    assert _Layer.__dict__["helper"] is original


def test_disabled_tracer_records_nothing_and_diff_subtracts():
    tracer = Tracer()
    tracer.install(_Layer, "work", "layer.work")
    try:
        tracer.enabled = False
        _Layer().work()
        assert tracer.snapshot()["spans"] == {}
        tracer.enabled = True
        _Layer().work()
        before = tracer.snapshot()
        _Layer().work()
        _Layer().work()
        delta = diff(tracer.snapshot(), before)
    finally:
        tracer.uninstall()
    assert delta["spans"]["layer.work"]["calls"] == 2
