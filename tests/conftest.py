import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")    # as linsha.cli: no BLAS thread to fork

import random
from pathlib import Path

import pytest

from linsha.codewords import load_codeword_file, resolve_word_order

DATA = Path(__file__).resolve().parents[1] / "src" / "linsha" / "data"

# canonical generator of the expansion-consistency kernel (relaxed second
# condition): every component is a multiple of 2^28
KERNEL_GENERATOR = (
    0x10000000, 0xA0000000, 0xC0000000, 0xA0000000,
    0xE0000000, 0x20000000, 0x40000000, 0x40000000,
    0x80000000, 0xD0000000, 0x10000000, 0x60000000,
    0x50000000, 0x40000000, 0x70000000, 0x30000000,
)

# generator of the strict kernel (backward extension words all zero); MSBs at
# positions 0, 2, 9, 11, 13 -- the collision-producing difference
STRICT_GENERATOR = tuple(
    0x80000000 if i in (0, 2, 9, 11, 13) else 0 for i in range(16)
)


@pytest.fixture(scope="session")
def table5_path() -> Path:
    return DATA / "table5.hex"


@pytest.fixture(scope="session")
def table5_words(table5_path) -> list[int]:
    words, order, valid, weight = resolve_word_order(load_codeword_file(str(table5_path)))
    assert valid and weight == 26 and order == "column-major,bit-reversed"
    return words


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def forks(monkeypatch):
    """Pid of every child forked while the test runs, as the caller sees it."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
