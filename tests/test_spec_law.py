"""A spec builds its joint law once, on first use, and every command shares it."""

import pathlib
import sys
from collections import Counter

import numpy as np
import pytest

from cranregions import DownlinkSpec, UplinkSpec, prob
from cranregions.cli import main

from conftest import bsc, k2l2_bsc_spec, random_downlink_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
BUILDERS = ("build_uplink_joint", "build_downlink_joint")


@pytest.fixture
def builds(monkeypatch):
    """Calls of each law builder, counted in every module that holds it."""
    counts = Counter()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cranregions"]
    for name in BUILDERS:
        original = getattr(prob, name)

        def counted(spec, name=name, original=original):
            counts[name] += 1
            return original(spec)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "argv, builder",
    [
        (["verify", "uplink_k2l2.json", "--suite", "all", "--samples", "5"], "build_uplink_joint"),
        (["verify", "downlink_k2l2.json", "--suite", "all", "--samples", "5"],
         "build_downlink_joint"),
        (["psi", "identity_k1l1.json", "--invert", "1,1"], "build_uplink_joint"),
        (["corners", "uplink_k2l2.json"], "build_uplink_joint"),
        (["corners", "downlink_k2l2.json", "--format", "csv", "--dedup"], "build_downlink_joint"),
        (["face", "uplink_k2l2.json", "--point", "0.5,0.5,1,1", "--S", "1", "--T", "2"],
         "build_uplink_joint"),
        (["slice", "downlink_k2l2.json", "--vary", "R1,C1", "--fixed", "R2=0.2,C2=0.5",
          "--steps", "4"], "build_downlink_joint"),
    ],
    ids=["verify-up", "verify-down", "psi-invert", "corners-up", "corners-down", "face",
         "slice"],
)
def test_each_command_builds_one_law(capsys, builds, argv, builder):
    code = main([argv[0], str(SPECS / argv[1]), *argv[2:]])
    capsys.readouterr()
    assert code in (0, 1)
    assert builds == Counter({builder: 1})


def test_law_is_built_once_per_spec():
    up = k2l2_bsc_spec()
    down = random_downlink_spec(np.random.default_rng(3))
    assert up.law is up.law and down.law is down.law
    assert up.law.names == ("X1", "X2", "Y1", "Y2", "Yh1", "Yh2")
    assert down.law.names == ("U1", "U2", "X1", "X2", "Y1", "Y2")


def test_spec_arrays_are_read_only_copies():
    pmf, chan, tc = np.array([0.5, 0.5]), bsc(0.1), bsc(0.2)
    aux = np.array([[0.4, 0.1], [0.1, 0.4]])
    up = UplinkSpec(K=1, L=1, input_pmfs=(pmf,), channel=chan, test_channels=(tc,))
    down = DownlinkSpec(K=1, L=1, aux_joint=aux, channel=chan)
    for arr in (up.input_pmfs[0], up.channel, up.test_channels[0], down.aux_joint,
                down.channel):
        with pytest.raises(ValueError):
            arr[0, ...] = 0.0
    for arr in (pmf, chan, tc, aux):
        arr[0, ...] = 0.0  # the caller's arrays stay writable and are not the spec's
    assert up.channel[0, 0] == 0.9 and down.aux_joint[0, 0] == 0.4
