"""The demo scripts run and print, and write, exactly what they did when
their digests were pinned."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import gasket

DEMOS = pathlib.Path(__file__).parent.parent / "demos"
SRC = pathlib.Path(gasket.__file__).parent.parent

# SHA-256 of each demo's stdout and of the files it writes.
PINNED = {
    "01_check_and_reduce.py": (
        "856279f906607c9d589ac4d04800e6211331486e0e90826c89d4555aea9bc6db",
        {}),
    "02_unit_square_picture.py": (
        "be9862df83d896409cd09ba3f8c9a2d440abc1b29cfac752c772cba717eac3f4",
        {"unit_square_depth.svg":
         "54bdb00fb7f09b10e4d51c3ceedfe56e2bc557ae8b72049d5cb538c88858ef60",
         "unit_square_odd.svg":
         "4d7ffc8189a3dab0787ebd2dd8205766f22d41a26973c03597bfbea5380c52d9"}),
    "03_census_completion_location.py": (
        "84475953634417257d57c4fe7713f4fd18c08f3e1875f847b102edfc1ebe9cad",
        {}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output_is_unchanged(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    stdout_sha, files = PINNED[name]
    assert sha256(proc.stdout) == stdout_sha
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for fname, digest in files.items():
        assert sha256((tmp_path / fname).read_bytes()) == digest
