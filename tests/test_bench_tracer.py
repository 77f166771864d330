"""The campaign benchmark's tracer wraps program names by attribute lookup;
installing and uninstalling it fails as soon as one of those names is gone."""

import os

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
