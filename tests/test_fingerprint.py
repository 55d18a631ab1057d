"""Bit-for-bit gate: ``scripts/fingerprint.py`` must print the golden digests.

``fingerprint_golden.txt`` holds the script's output under a header of the
context the bits depend on: the NumPy version, the BLAS library and version,
the machine architecture and the CPU model. The CPU model is there because a
``DYNAMIC_ARCH`` OpenBLAS picks its kernels at run time, and BLAS's gemv and
gemm paths already give different bits. When the context differs from the
header, the test skips and names the field.

A change that moves a bit on purpose rewrites the file in the same commit
(``PYTHONPATH=src python tests/test_fingerprint.py``) and says in
``CHANGES.md`` which lines changed and why.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "fingerprint_golden.txt"
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bit_context() -> dict[str, str]:
    """What the digests depend on beyond the source, one header line each."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "machine": platform.machine(),
        "cpu": cpu_model(),
    }


def run_fingerprint() -> list[str]:
    """The script's output lines, with one BLAS thread and this checkout's package."""
    env = dict(os.environ, **{name: "1" for name in ONE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fingerprint.py")],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return done.stdout.splitlines()


def read_golden() -> tuple[dict[str, str], list[str]]:
    header, lines = {}, []
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            header[key] = value
        else:
            lines.append(line)
    return header, lines


def test_fingerprint_matches_the_golden_digests():
    header, golden = read_golden()
    for key, value in bit_context().items():
        if header.get(key) != value:
            pytest.skip(f"golden digests were taken with {key} {header.get(key)!r}, "
                        f"this run has {value!r}")
    printed = run_fingerprint()
    moved = [g.split()[0] for g, p in zip(golden, printed) if g != p]
    assert len(printed) == len(golden), f"{len(printed)} lines printed, {len(golden)} golden"
    assert not moved, f"digests that moved: {moved}"


if __name__ == "__main__":
    header = [f"# {key}: {value}" for key, value in bit_context().items()]
    GOLDEN.write_text("\n".join(header + run_fingerprint()) + "\n")
