"""The campaign benchmark's tracer wraps program names by attribute lookup;
installing and uninstalling it fails as soon as one of those names is gone."""

import os

import numpy as np

import chamberopt.gp as gp
import chamberopt.optim as optim

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "campaign_bench")


def test_tracer_install_round_trip(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from tracer import Tracer, install

    original = optim.qcei_mc
    uninstall = install(Tracer())
    try:
        assert optim.qcei_mc is not original
    finally:
        uninstall()
    assert optim.qcei_mc is original
    assert optim.posterior is gp.posterior


def test_tracer_sites_are_called(monkeypatch):
    # a wrapped name that the program no longer calls would report 0 forever
    monkeypatch.syspath_prepend(BENCH)
    from tracer import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        X = np.random.default_rng(0).uniform(size=(8, 2))
        gp.fit(X, np.sin(4.0 * X[:, 0]) + X[:, 1], "objective", seed=0)
    finally:
        uninstall()
    calls = {name: v["calls"] for name, v in tracer.summary().items()}
    assert calls["gp.lml_and_grad"] > 0
    assert calls["kernels.matern52_cross_grad"] == calls["gp.lml_and_grad"]
