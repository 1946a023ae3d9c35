"""Order-independent result merging.

Workers complete in whatever order the host scheduler picks; these
helpers reassemble their results into the canonical cell order so the
downstream report build is independent of completion order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple


def merge_indexed(pairs: Iterable[Tuple[int, Any]], size: int) -> List[Any]:
    """Reassemble ``(cell_index, result)`` pairs — arriving in *any*
    order — into a list ordered by cell index."""
    results: List[Any] = [None] * size
    seen = [False] * size
    for index, value in pairs:
        if not 0 <= index < size:
            raise IndexError(f"cell index {index} outside [0, {size})")
        if seen[index]:
            raise ValueError(f"duplicate result for cell {index}")
        results[index] = value
        seen[index] = True
    missing = [i for i, ok in enumerate(seen) if not ok]
    if missing:
        raise ValueError(f"missing results for cells {missing}")
    return results


def merge_dicts(dicts: Iterable[Dict[Any, Any]]) -> Dict[Any, Any]:
    """Union per-cell result dicts in the given (canonical) order.

    Cells own disjoint key sets, so the union is order-independent in
    content; iterating in canonical order additionally pins the
    insertion order, keeping any downstream iteration byte-identical
    with the serial run.
    """
    merged: Dict[Any, Any] = {}
    for d in dicts:
        for key in d.keys() & merged.keys():
            raise ValueError(f"cells disagree on key {key!r}")
        merged.update(d)
    return merged
