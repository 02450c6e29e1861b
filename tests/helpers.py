"""Shared test helpers."""

import os

from cleanbench.tabular import CellRef, DetectionMask

# Pool tests never use more workers than the machine has cores.
POOL_WORKERS = min(2, os.cpu_count() or 1)


def mask_cells(mask: DetectionMask) -> frozenset[CellRef]:
    """The flagged cells of a mask as a set, for set arithmetic in assertions."""
    return frozenset(mask.sorted_cells())
