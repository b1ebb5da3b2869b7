"""The benchmark's tracer wraps ardtk's entry points by name.

``perfbench/tracing.py`` reads each wrapped name from its owner's
``__dict__`` when a ``Tracer`` is built, and binds the arguments of
``search_min_rate`` by name when a span closes.  A change under
``src/`` that drops or renames one of those would only show up in a
traced benchmark run; these tests make it fail here instead.
"""
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from ardtk import rdsearch
from ardtk.bits import BitWord
from ardtk.distortion import HAMMING, DistortionSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


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
