"""Preset and command outputs against sha256 digests fixed in advance.

A replay compares a run with itself, so only digests recorded beforehand
catch a change that moves the bytes of every run alike.  The digests were
recorded on x86-64 with the numpy and scipy versions that key them; on
other versions the test is skipped.  fig5, fig12 and fig13_fit.csv are not
pinned: their bytes follow numpy's SIMD dispatch level.
"""

import hashlib

import numpy as np
import pytest
import scipy

from srlab.cli import main

# run -> the argv that writes its files
RUNS = {
    "fig4": ["reproduce", "fig4"],
    "fig6": ["reproduce", "fig6"],
    "fig8": ["reproduce", "fig8"],
    "table1": ["reproduce", "table1"],
    "fig13": ["reproduce", "fig13"],
    "bank_threshold": ["bank", "--mode", "threshold"],
    "bank_sigma": ["bank", "--mode", "sigma"],
    "detect_freq": ["detect-freq"],
    # no preset draws below the sample rate, holding each draw: these two do
    "t0_curve_rate": ["t0-curve", "--noise-rate", "10000", "--runs", "5",
                      "--sigma-grid", "0:0.3:0.05"],
    "bank_rate": ["bank", "--noise-rate", "4000", "--votes", "5"],
}

# (numpy, scipy) versions -> run -> {file: sha256}
DIGESTS = {
    ("2.4.6", "1.17.1"): {
        "fig4": {
            "fig4.csv": "167c44ca70c81891d8f1a88f4652eb9714349916109ed1c8896a08a978400cf0",
            "fig4_manifest.ini":
                "ff578fd5dca924c440aedafcfb089296f0d30cb6d79c9cbcb74ff925d7b6e111",
        },
        "fig6": {
            "fig6.csv": "3c99b541607739284f8aee67b006a76436dda0fcee4435bd2946db09004b18b2",
            "fig6_manifest.ini":
                "8d37cccc10541e7b449af88fcfe4d28463c11be5a034c55599a082f1f335ee13",
        },
        "fig8": {
            "fig8.csv": "bfcae2a856bef85d6bcd715c471ceb97f137475fb353d55d62e380dbfd95a5cf",
            "fig8_manifest.ini":
                "0f56ff2d8736b94da1acf831514425534f44fa3ad62aa3aa77ed5a97682b66bc",
        },
        "table1": {
            "table1.csv": "6b3e2703be17ea12281e5eec426334bc446b0728a5be51681c91128b1c4e5d9c",
            "table1_manifest.ini":
                "3a697126699dc64e60613b267738f092d4f06420b4d1d552e03e54d8100acb69",
        },
        "fig13": {
            "fig13.csv": "f850193f682724b3591521b198e773d7216f7bf5fa14cacd197d97d1fcd827f1",
            "fig13_manifest.ini":
                "9a145283d71fd520f4ed2321aae7295ada1850f7110bf2f1412242a647c72ea5",
        },
        "bank_threshold": {
            "bank.csv": "a4ba6e1999c87222d207a606550f5bf53198b9131611a863ac9830bc8dc2d45c",
            "bank_manifest.ini":
                "0b691ae6da4607a0aa9f7d646519e33824b7afaf1cc97309fbc3944960a75d05",
        },
        "bank_sigma": {
            "bank.csv": "797fa92322733842bac975ce30a0e59eccd5023495926f0b9c1a3e2e8ed6acb8",
            "bank_manifest.ini":
                "f411e144bba520764f6a72464ae2514138641802b4d062ee7b863c567c2f4671",
        },
        "detect_freq": {
            "detect_freq.csv":
                "0a4bc83b20f2d1d159a5111d7855ce73997180cceda8edd1576821c665b3b189",
            "detect_freq_manifest.ini":
                "9c1bc961eb13cf512c1cf54b18057bc581720a4a70f81dfe5e7f6ad72f852794",
        },
        "t0_curve_rate": {
            "t0_curve.csv": "35a473ef9e29eb003a8e553afd874b6e9e8c8903051327ba224b16959a7aa61c",
            "t0_curve_manifest.ini":
                "10044f384f153f858ef38f38d2b15601f27f994b8fcc84c000ce46a24a4a0ee6",
        },
        "bank_rate": {
            "bank.csv": "8f568820ffe5e7f23bfb9a6bfe04cfbc7649ce48f25b50ba508dc1ed0e3cd5a6",
            "bank_manifest.ini":
                "dc9f2c8143aa2586107a28ae4f9c449152802d9e44e655a9966e98638673ab17",
        },
    },
}

KEY = (np.__version__, scipy.__version__)


def _digests(name: str) -> dict:
    if KEY not in DIGESTS:
        pytest.skip(f"no digests for (numpy, scipy) {KEY}; recorded for {sorted(DIGESTS)}")
    return DIGESTS[KEY][name]


def _sha256(folder, files) -> dict:
    return {f: hashlib.sha256((folder / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", RUNS)
def test_output_digests(tmp_path, name):
    want = _digests(name)
    assert main([*RUNS[name], "--out-dir", str(tmp_path)]) == 0
    assert _sha256(tmp_path, want) == want


def test_config_replay_digests(tmp_path):
    # a run replayed from its manifest writes the pinned bytes of the run itself
    want = _digests("fig4")
    assert main(["reproduce", "fig4", "--out-dir", str(tmp_path / "run")]) == 0
    assert main(["reproduce", "fig4", "--config", str(tmp_path / "run" / "fig4_manifest.ini"),
                 "--out-dir", str(tmp_path / "replay")]) == 0
    assert _sha256(tmp_path / "replay", want) == want
