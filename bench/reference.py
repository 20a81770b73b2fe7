"""Reference timings of single layers and whole CLI commands at fixed sizes.

Run from the root of a source checkout:

    python3 bench/reference.py

Each entry is timed in this process REPEATS times (once for the entries
marked slow) and the median is printed.  The CLI entries call
``b2weight.cli.main`` in-process with its output discarded, so they exclude
interpreter start and import (``setup_s`` in ``run.py`` covers those).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from b2weight import cli, hyper, vpoly  # noqa: E402


REPEATS = 3


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)


# (label, size, call, slow)
ENTRIES = (
    ("hyper.alpha_beta_recurrence", "N = 20", lambda: hyper.alpha_beta_recurrence(20), False),
    ("hyper.alpha_beta_recurrence", "N = 40", lambda: hyper.alpha_beta_recurrence(40), False),
    ("hyper.alpha_beta_recurrence", "N = 80", lambda: hyper.alpha_beta_recurrence(80), True),
    ("vpoly.alpha_beta_via_laplacian", "n = 3", lambda: vpoly.alpha_beta_via_laplacian(3), False),
    ("vpoly.alpha_beta_via_laplacian", "n = 4", lambda: vpoly.alpha_beta_via_laplacian(4), False),
    ("vpoly.alpha_beta_via_laplacian", "n = 5", lambda: vpoly.alpha_beta_via_laplacian(5), False),
    ("b2weight verify quad --nmax 20", "defaults", lambda: _cli(["verify", "quad", "--nmax", "20"]), True),
    (
        "b2weight table --nmax 20 --k0 1/4 --k1 0",
        "csv",
        lambda: _cli(["table", "--nmax", "20", "--k0", "1/4", "--k1", "0", "--format", "csv"]),
        True,
    ),
)


def main() -> int:
    print("| layer / command | size | median s | repeats |")
    print("|---|---|---|---|")
    for label, size, call, slow in ENTRIES:
        repeats = 1 if slow else REPEATS
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
        print(f"| `{label}` | {size} | {statistics.median(samples):.3g} | {repeats} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
