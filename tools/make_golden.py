#!/usr/bin/env python3
"""Regenerate the committed golden sweep snapshots under tests/golden/.

The snapshots are byte-exact (:meth:`float.hex` floats) serial-run outputs
of the small reference grids in :mod:`repro.sim.harness`, each point
simulated on its own fresh runner (no trajectory-memo hits).  The golden
regression tests assert that :class:`~repro.sim.sweep.SweepRunner`
reproduces them bit-for-bit at ``workers=0``, ``workers=1`` and
``workers=4``.

Run this (``PYTHONPATH=src python tools/make_golden.py``) only when a
deliberate simulation change legitimately moves the numbers, and commit
the refreshed files together with that change.
"""

from __future__ import annotations

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.harness import GOLDEN_GRIDS, write_golden  # noqa: E402

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def main() -> int:
    for name in GOLDEN_GRIDS:
        path = write_golden(name, GOLDEN_DIR)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
