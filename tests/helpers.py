"""Shared test helpers."""

from cleanbench.tabular import CellRef, DetectionMask


def mask_cells(mask: DetectionMask) -> frozenset[CellRef]:
    """The flagged cells of a mask as a set, for set arithmetic in assertions."""
    return frozenset(mask.sorted_cells())
