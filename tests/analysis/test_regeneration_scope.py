"""One figure regeneration characterizes each TensorFlow network once.

``all_results`` shares the networks among Figures 6, 7 and the
headline inside a regeneration scope; nothing is cached across calls,
and a standalone figure computes its own.
"""

import sys

import pytest

from repro.analysis import report
from repro.analysis.tensorflow_figures import (
    fig06_tf_energy,
    network_characterizations,
    regeneration_scope,
)
from repro.workloads.tensorflow import network
from repro.workloads.tensorflow.models import all_models

NETWORKS = len(all_models())


@pytest.fixture
def calls(monkeypatch):
    """Count ``network_functions`` calls through every module binding."""
    real = network.network_functions
    seen = []

    def spy(net):
        seen.append(net.name)
        return real(net)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, spy)
    return seen


def test_serial_regeneration_computes_each_network_once(calls):
    report.all_results(cache=None)
    assert sorted(calls) == sorted(net.name for net in all_models())


def test_nothing_is_shared_across_regenerations(calls):
    report.all_results(cache=None)
    report.all_results(cache=None)
    assert len(calls) == 2 * NETWORKS


def test_standalone_figure_computes_each_network_once(calls):
    fig06_tf_energy()
    assert len(calls) == NETWORKS


def test_failed_regeneration_leaves_no_scope(calls, monkeypatch):
    def broken():
        raise RuntimeError("injected")

    monkeypatch.setattr(report, "EXPERIMENTS", (fig06_tf_energy, broken))
    with pytest.raises(RuntimeError, match="injected"):
        report.all_results(cache=None)
    assert len(calls) == NETWORKS
    fig06_tf_energy()
    assert len(calls) == 2 * NETWORKS


def test_scope_returns_one_characterization_per_network(calls):
    with regeneration_scope():
        first = network_characterizations()
        assert network_characterizations() is first
    assert network_characterizations() is not first
    assert [ch.workload for ch in first] == [net.name for net in all_models()]
    assert len(calls) == 2 * NETWORKS
