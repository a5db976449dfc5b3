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
    "linearize-two-mg-mg1": ["linearize", "--scenario", "two-mg", "--mg", "1"],
    "linearize-two-mg-ilc1": ["linearize", "--scenario", "two-mg", "--ilc", "1"],
    "passivity-two-mg": ["passivity", "--scenario", "two-mg", "--ilc", "1"],
}

DIGESTS = {
    "simulate-two-mg": {
        "stdout":
            "6ce8875de8c178f988c5af6c897e9d155e693b2e75111882b6b635672e626c7b",
        "two-mg-dc-voltages.svg":
            "6404049fd2acca66a316ce7d1aef4499c31a7094e8964071ccae012ef6f3d7ff",
        "two-mg-frequencies.svg":
            "df188b840da54f77efdc841590607e718a415b070527c64b3a067e1c3d84f168",
        "two-mg-resolved.json":
            "5123afc54467d035165e0ca7da062e57e6fd59028c6145b0af7760780174f72b",
        "two-mg-trajectory.csv":
            "963a7235923a8493ced23cfbdb67e91c0869a54dac308c4783f4d72611c37bca",
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
            "54d3034a2e999c46fba3047da036f87119d21c6638d3debbc07d5dd3f89b19a6",
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
    "linearize-two-mg-mg1": {
        "stdout":
            "49e2c4245633501e17eda7f4e04a968f65c4385e4bd6f7cfe164c3dedab5caed",
        "two-mg-mg1-A.csv":
            "7d0243dddd310c9a91d214cc57cd4f13a7b7d6a56c27ff8bcc24b272f31bb6c6",
        "two-mg-mg1-B.csv":
            "e67713ec3ea54438592a1d2c68b4a40a224b705c12e57593bf48b52828fd8b66",
        "two-mg-mg1-C.csv":
            "c3ecd8e93ff6728ff24deceeecf5fc7b47492b4f16485fad0af94d8c35f7cffd",
        "two-mg-mg1-D.csv":
            "49d2377a450db21156c52985193d818ab22791aa8bbf389a789c8efa2aae2d4e",
    },
    "linearize-two-mg-ilc1": {
        "stdout":
            "12d295ff5e1ec98bb3fbd48afcfed4d2b52db6d9a4bf2dfbf15282f684a4661e",
        "two-mg-ilc1-A.csv":
            "2885ff28c06d8af5623c07d16ea4969c6068ecc2743db197128e7b381ad0c095",
        "two-mg-ilc1-B.csv":
            "6835b8330bb20f1b26bc77777b304ae271d3494868b8e9041dcc67c1d8d0a29b",
        "two-mg-ilc1-C.csv":
            "e046c73563f3586c61e5a4dff1106e293d63a9a7755f72704a77f394a8a40914",
        "two-mg-ilc1-D.csv":
            "8eb1f695250b2376fd77cde2d7685f0b3cb8e07bf9d078d43be53c55dd1ecb4c",
    },
    "passivity-two-mg": {
        "stdout":
            "d177eca06481910038375ecfad0d7aa68458eec4a67d11173645e3a4c844f35d",
        "two-mg-ilc1-passivity.csv":
            "13cb65b872c650dab6ffb31dedd5a2fb14ccefe0204c8399295dcbe29542343c",
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
