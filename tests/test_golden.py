"""Byte-identity of the CLI's outputs on the shipped scenarios.

Each case runs one subcommand in process and compares the sha256 digest of
every file it writes, and of its stdout with the output directory written
as ``<out>``, with the digests pinned below.  A change that moves any of
these outputs has to say why, and re-pin them.
"""

import hashlib

import pytest

from multigrid_ilc.cli import main

CASES = {
    "simulate-two-mg": ["simulate", "--scenario", "two-mg", "--dump-config"],
    "simulate-three-mg": ["simulate", "--scenario", "three-mg", "--dump-config"],
    "linearize-two-mg": ["linearize", "--scenario", "two-mg"],
    "passivity-two-mg": ["passivity", "--scenario", "two-mg", "--ilc", "1"],
}

DIGESTS = {
    "simulate-two-mg": {
        "stdout":
            "6ce8875de8c178f988c5af6c897e9d155e693b2e75111882b6b635672e626c7b",
        "two-mg-dc-voltages.svg":
            "fbbe123f94273f04943d5bb65f9b592a560d682e19f9f7aa5cb2ac763520a9ea",
        "two-mg-frequencies.svg":
            "50c64cd520e73dad46e8557d7e7c88cde5db7496903d2fb638312ec2d8169375",
        "two-mg-resolved.json":
            "5123afc54467d035165e0ca7da062e57e6fd59028c6145b0af7760780174f72b",
        "two-mg-trajectory.csv":
            "67a826ba8eccda672d194748618f1a9e3b4dc09fab0209d6e2e2ea3bdfed845f",
    },
    "simulate-three-mg": {
        "stdout":
            "393f18d72c8c54c3a271f3816d1aecc7650fb1efb69f900bab0641788eb26702",
        "three-mg-dc-voltages.svg":
            "8f376c8cd7f0e60d95ff113d57a2b5188e684e97ebfc7164add7920a3a292f35",
        "three-mg-frequencies.svg":
            "73b09c810ff476f574ae3d371b7357992be237f6623cfe84e35dde990637ac0a",
        "three-mg-resolved.json":
            "04410001fc1d6e5788e9c87e5163a0c99d98b7662156b85b801fad33784f59c5",
        "three-mg-trajectory.csv":
            "1a8adfcda799e3a3c9716f61ea52ea7ffd2895e1c11ff5f6229cb0c818452871",
    },
    "linearize-two-mg": {
        "stdout":
            "a99c51ed19cba96016c3c9081a7f945dd647791c9fa8afc96e484646ff612d78",
        "two-mg-closed-loop-A.csv":
            "9506a6ec2d91e3914311d8006d3b88d3d52598d73a1b768ee23dfd25c480901b",
        "two-mg-closed-loop-B.csv":
            "79488488398f5f5aed236dd6e9f914599370d04dfe70fda61b8c83bf739b1088",
        "two-mg-closed-loop-C.csv":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "two-mg-closed-loop-D.csv":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "passivity-two-mg": {
        "stdout":
            "d177eca06481910038375ecfad0d7aa68458eec4a67d11173645e3a4c844f35d",
        "two-mg-ilc1-passivity.csv":
            "b4131942086a1711a1cf75805ab2ab8297236fee9aaa809acbc93fee8293de93",
        "two-mg-ilc1-passivity.svg":
            "450e5109c5a5dd3304028abbf11ed27d6565fe4aa370d25338bc807b9acb0279",
    },
}


def digests(stdout, out):
    """sha256 of the stdout (the output directory written as ``<out>``) and
    of every file in ``out``, by file name."""
    found = {"stdout": hashlib.sha256(stdout.replace(str(out), "<out>").encode()).hexdigest()}
    for path in sorted(out.iterdir()):
        found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_pinned_digests(case, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*CASES[case], "--out", str(out)]) == 0
    assert digests(capsys.readouterr().out, out) == DIGESTS[case]
