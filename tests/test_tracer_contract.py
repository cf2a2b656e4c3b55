"""The names perfbench's tracer patches exist where it looks them up.

perfbench/bench_trace.py wraps library functions and model methods in place,
reading each one with owner.__dict__[attr]; a renamed or deleted name makes
`perfbench/run.py --trace 1` fail at install. This test installs the tracer
the same way and checks that every patched name is wrapped while it is
installed and is the original object again afterwards.
"""

import importlib.util
from pathlib import Path

from mmbgk import experiments, schemes
from mmbgk.experiments import TwoBeamConfig, two_beam_initial

_TRACE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _load_bench_trace():
    spec = importlib.util.spec_from_file_location("perfbench_bench_trace", _TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_patched_name():
    bt = _load_bench_trace()
    targets = [(owner, attr) for owner, attr, _ in bt._FUNCTIONS]
    targets += [(cls, attr) for cls in bt._MODEL_CLASSES for attr, _ in bt._METHODS]
    # the attribute must sit in the owner's own namespace, not be inherited
    originals = [owner.__dict__[attr] for owner, attr in targets]
    run_original = experiments.run
    tracer = bt.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert owner.__dict__[attr].__wrapped__ is original, (owner, attr)
        assert experiments.run is not run_original
        # the wrappers record spans on a real (one-step) run
        cfg = TwoBeamConfig(n_cells=20, t_end=5e-4)
        schemes.run_with_reports(two_beam_initial(cfg)[0], cfg)
        calls, _ = tracer.layer_totals()
        assert calls["schemes.run"] == 1 and tracer.counts["schemes.steps"] == 1
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, (owner, attr)
    assert experiments.run is run_original
