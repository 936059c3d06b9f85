"""Golden bytes: each command's CSV and stdout, as sha256 digests.

The CLI writes numbers at six significant digits, so these digests pin the
engine's output end to end: any change to the draws, the crest loop, the
measurements or the formatting shows here.  A change to the bytes must be a
declared contract change that records new digests.
"""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

from ofdmclip.cli import main

SYMBOLS = ("--symbols", "1000")

# id -> argv; digests are the sha256 of the CSV bytes followed by the stdout bytes
COMMANDS = {
    "ccdf-cf": ["ccdf", "--clip", "cf", *SYMBOLS],
    "ccdf-none": ["ccdf", "--clip", "none", *SYMBOLS],
    "ccdf-pw": ["ccdf", "--clip", "pw", *SYMBOLS],
    "ccdf-iter0": ["ccdf", "--iterations", "0", *SYMBOLS],
    "ccdf-pw-flattop": ["ccdf", "--clip", "pw", "--window", "flattop", *SYMBOLS],
    "ccdf-pw-kaiser20": ["ccdf", "--clip", "pw", "--window", "kaiser", "--kaiser-beta", "20",
                         "--window-len", "31", *SYMBOLS],
    "ccdf-mod2": ["ccdf", "--mod", "2", *SYMBOLS],
    "ccdf-bign-pw": ["ccdf", "--n", "1024", "--oversample", "8", "--mod", "64", "--clip", "pw",
                     "--symbols", "6"],
    "ser-cf": ["ser", "--clip", "cf", *SYMBOLS],
    "ser-none-mod16": ["ser", "--clip", "none", "--mod", "16", *SYMBOLS],
    "ser-pw-kaiser": ["ser", "--clip", "pw", "--window", "kaiser", *SYMBOLS],
    "window-sweep": ["window-sweep", *SYMBOLS],
}

DIGESTS = {
    "ccdf-cf": "a00d3ffbd0ad893b2b82a81ae1eaff32ba01a25de82dce5a3e895d6b6fad5505",
    "ccdf-none": "ae1a30b3f69c4e9ced89ac4990b95c77643a0cb090fe99a6c0e6714e83f9a23a",
    "ccdf-pw": "17724fcf99e65f21c2ba255099d35927c935c41a5dfcf53dc8005b4375806914",
    "ccdf-iter0": "2fb1668dad7cd7bf695cf2502be59036835314d0f700c7b5c87eaa7075ff0698",
    "ccdf-pw-flattop": "22a2b11897d84aa7fc8e7912b6954f5ec191475cadff7b5d316b627c8e39fb69",
    "ccdf-pw-kaiser20": "4e2f9e70703d29afa6676755c0ccf04d0fdad5edef6272a4fa543c50149df534",
    "ccdf-mod2": "e3b9b9d7a9aacdb75175f73baf10bd49ce36c7addc92690410cd785e26328aa4",
    "ccdf-bign-pw": "a5d346ffcc8b63e7779e1bd93e04415337a6114acbb63583c798dfef45f3ccb7",
    "ser-cf": "a6bd850f286644345ced40387437d73990e6a4e7da55dc07f230727970e496da",
    "ser-none-mod16": "e1a2ab255aba354bccaa69aaa42cda0f4e363b5b5e142334d0f947d8dcb34310",
    "ser-pw-kaiser": "d5efa338d2ecc9e6fcc92c1dd819f3ebd1207f4110a9b3bcfbd03f05aae0b322",
    "window-sweep": "a4bf43addf5ed956b5d65f1172603552b37cfd92c8d05147fc2c5f3122149c9d",
}


@pytest.fixture
def clean_env(tmp_path, monkeypatch):
    """Run in an empty directory, so stdout names a relative path, with no
    ``OFDMCLIP_*`` variable in effect."""
    monkeypatch.chdir(tmp_path)
    for name in list(os.environ):
        if name.startswith("OFDMCLIP_"):
            monkeypatch.delenv(name)
    return tmp_path


@pytest.mark.parametrize("case", COMMANDS)
def test_output_bytes_are_golden(clean_env, capsys, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(COMMANDS[case] + ["--out", "out.csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    got = hashlib.sha256((clean_env / "out.csv").read_bytes()
                         + captured.out.encode()).hexdigest()
    assert got == DIGESTS[case]


# The golden commands in a fresh process, which checks that numpy took the
# features named in its second argument out of use, and prints the digests.
REDUCED_RUN = """
import contextlib, hashlib, io, json, sys, warnings
from numpy._core import _multiarray_umath as umath
from ofdmclip.cli import main
assert not any(umath.__cpu_features__[f] for f in sys.argv[2].split())
digests = {}
for case, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert main(argv + ["--out", "out.csv"]) == 0 and not err.getvalue()
    with open("out.csv", "rb") as fh:
        digests[case] = hashlib.sha256(fh.read() + out.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


def test_output_bytes_are_golden_under_reduced_simd_dispatch(clean_env):
    # numpy picks some kernels (Box-Muller's log1p, cos and sin, complex abs,
    # log10) by CPU feature; with every feature it dispatches above its
    # baseline turned off, the bytes must stay the same
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not features:
        pytest.skip("numpy dispatches no feature above its baseline on this CPU")
    src = str(Path(__file__).resolve().parent.parent / "src")
    disabled = " ".join(features)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", REDUCED_RUN, json.dumps(COMMANDS), disabled],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == DIGESTS


def test_erased_symbol_exit_and_message_are_golden(clean_env, capsys):
    # a rect peak window of 255 samples on N*L = 256 zeroes whole rows; the
    # row is caught after the clip loop, by the PAPR measurement
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ccdf", "--clip", "pw", "--window", "rect", "--window-len", "255",
                     "--symbols", "200", "--out", "out.csv"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numeric error: PAPR must be finite; an all-zero row or "
                            "NaN or inf samples have none\n")
    assert not (clean_env / "out.csv").exists()
