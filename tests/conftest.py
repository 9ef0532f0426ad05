import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memaudit
from memaudit.core import Dataset, ImageRecord

SRC = str(Path(memaudit.__file__).parents[1])


def child(*args, env=None, one_cpu=False, address_space=None):
    """A fresh interpreter running ``python *args`` (``-m memaudit.cli ...``
    or ``-c code ...``) on the tested source, under ``-X dev`` when this
    one is, with ``env`` laid over this process's environment (a None value
    unsets its variable). ``one_cpu`` pins the child to the lowest CPU this
    process may run on; ``address_space`` caps the child's address space in
    bytes. Both limits are set in the child alone, after it forks. Returns
    the CompletedProcess, stdout and stderr as text."""
    merged = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    if one_cpu and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    if address_space is not None:
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")

    def limits():
        if one_cpu:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []), *args],
        env={name: value for name, value in merged.items() if value is not None},
        capture_output=True, text=True, timeout=300,
        preexec_fn=limits if one_cpu or address_space is not None else None,
    )


def image(values, channels=1, height=None, width=None, id="img"):
    """ImageRecord from a nested or flat value list."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 3:
        channels, height, width = arr.shape
    elif arr.ndim == 2:
        channels, (height, width) = 1, arr.shape
    elif height is None:
        height, width = 1, arr.size // channels
    return ImageRecord(id, channels, height, width, arr.reshape(-1))


def random_dataset(n, shape, seed, role="train", name="ds", scale=255.0):
    """Dataset of uniform-noise images (numpy RNG: test fixture only)."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    images = [
        ImageRecord(
            f"{name}_{i:04d}", c, h, w,
            (rng.random(c * h * w) * scale).astype(np.float32),
        )
        for i in range(n)
    ]
    return Dataset(name, role, tuple(images))


def ivc_payload_span(path, index=-1):
    """(offset, size) of entry ``index``'s payload in an IVC1 file."""
    blob = path.read_bytes()
    pos, spans = 8, []
    for _ in range(struct.unpack_from("<I", blob, 4)[0]):
        pos += 2 + struct.unpack_from("<H", blob, pos)[0]
        ndims = blob[pos]
        n_values = int(np.prod(struct.unpack_from(f"<{ndims}I", blob, pos + 1)))
        pos += 1 + 4 * ndims
        size = n_values * (4 if blob[pos] == 1 else 1)
        pos += 1
        spans.append((pos, size))
        pos += size + 4
    return spans[index]


def set_first_ivc_id(path, raw: bytes):
    """Give the first entry of an IVC1 file the id bytes ``raw``."""
    blob = path.read_bytes()
    old = struct.unpack_from("<H", blob, 8)[0]
    path.write_bytes(blob[:8] + struct.pack("<H", len(raw)) + raw + blob[10 + old :])


@pytest.fixture
def tiny_image():
    return image([1.0, 2.0, 3.0], id="tiny")
