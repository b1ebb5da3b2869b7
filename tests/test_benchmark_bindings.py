"""The benchmark's tracer wraps ardtk's entry points by name, and its
workloads call them.

``perfbench/tracing.py`` reads each wrapped name from its owner's
``__dict__`` when a ``Tracer`` is built, and binds the arguments of
``search_min_rate`` by name when a span closes.  ``perfbench/workloads.py``
imports ardtk names (``ball_cardinality``, ``make_noisy_cross``,
``SourceModel.bernoulli``, ...) and runs each workload's op.  A change
under ``src/`` that drops or renames one of those would only show up in
a benchmark run; these tests make it fail here instead.
"""
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from ardtk import codec, denoise, rdsearch
from ardtk.bits import BitWord
from ardtk.distortion import HAMMING, DistortionSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize(
    "name", ["denoise-cross32", "compare-n12", "codec-roundtrip", "cover-game"]
)
def test_workload_op_runs_and_checks(workloads, name):
    # one op on the first input of seed 0, from a cold oracle cache as the
    # benchmark runs it, and that op's own check
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(0)
    codec.clear_cache()
    out = workload.op(inputs[0])
    assert workload.check(inputs[0], out) == []
    assert isinstance(workload.digest(out), bytes)


def test_tracer_finds_every_wrapped_name(tracing):
    tracer = tracing.Tracer()
    assert len(tracer._swaps) == len(tracing._bindings())


def test_search_min_rate_binds_spec_delta_and_budget(tracing):
    tracer = tracing.Tracer()
    original = rdsearch.search_min_rate
    spec = DistortionSpec(HAMMING, 8)
    with tracer.installed():
        # called positionally, as the workloads call it
        rdsearch.search_min_rate(BitWord.zeros(8), spec, Fraction(1, 8), 16, 0)
    assert rdsearch.search_min_rate is original
    (span,) = [s for s in tracer.spans if s[tracing.NAME] == "rdsearch.search_min_rate"]
    # the radius-1 ball holds 9 words, within the budget of 16
    assert span[tracing.INFO] is True


def test_every_oracle_question_is_a_codelength_span_of_the_search(tracing):
    # the tracer sees the oracle only where rdsearch looks it up as a
    # module global at call time; one bound at import time would leave
    # rdsearch.evals and codec.codelength.* at zero
    tracer = tracing.Tracer()
    spec = DistortionSpec(HAMMING, 16)
    x = BitWord(16, 0b1011001110001011)
    trace = []
    codec.clear_cache()
    with tracer.installed():
        # the radius-4 ball holds 2,517 words, past the budget of 64
        rdsearch.search_min_rate(x, spec, Fraction(1, 4), 64, 0, trace=trace)
    spans = tracer.spans
    (search,) = [i for i, s in enumerate(spans) if s[tracing.NAME] == "rdsearch.search_min_rate"]
    assert spans[search][tracing.INFO] is False
    questions = [s for s in spans if s[tracing.NAME] == "codec.codelength"]
    evals = trace[-1][0]
    assert evals > 1
    assert len(questions) == evals
    assert all(s[tracing.PARENT] == search for s in questions)


def test_every_level_of_a_traced_curve_is_a_search_span(tracing):
    # the curve's level sweep looks search_min_rate up at call time; one
    # bound at import time would leave the levels out of the trace
    tracer = tracing.Tracer()
    spec = DistortionSpec(HAMMING, 16)
    x = BitWord(16, 0b1011001110001011)
    levels = [Fraction(k, 16) for k in (0, 1, 3, 5, 8)]
    with tracer.installed():
        curve = denoise.distortion_rate_curve(x, spec, None, 32, 0, levels=levels)
    spans = tracer.spans
    (parent,) = [i for i, s in enumerate(spans)
                 if s[tracing.NAME] == "rdsearch.distortion_rate_curve"]
    assert spans[parent][tracing.INFO] == curve.budget_used
    searches = [s for s in spans if s[tracing.NAME] == "rdsearch.search_min_rate"]
    assert len(searches) == len(levels)
    assert all(s[tracing.PARENT] == parent for s in searches)


def test_traced_denoise_op_pins_the_oracle_counts(tracing, workloads):
    # one traced denoise-cross32 op on the first seed-0 input, from a cold
    # cache: a change to which questions reach compress moves these counts
    workload = workloads.WORKLOADS["denoise-cross32"]
    inputs = workload.prepare(0)
    codec.clear_cache()
    tracer = tracing.Tracer()
    with tracer.installed():
        workload.op(inputs[0])
    metrics = tracing.layer_metrics(tracer.spans)
    assert {key: metrics.get(key) for key in (
        "codec.codelength.calls", "codec.codelength.misses",
        "rdsearch.evals", "rdsearch.budget_used_reported",
    )} == {
        "codec.codelength.calls": 2305,
        "codec.codelength.misses": 49,
        "rdsearch.evals": 44,
        "rdsearch.budget_used_reported": 2296,
    }
