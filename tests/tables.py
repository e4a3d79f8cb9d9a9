"""Test-side views of a validated algebra's sum table, for the oracles."""


def sums_dict(E) -> dict:
    """The partial sum as a dict over ordered pairs, (a, b) -> a + b, rebuilt
    from the dense table so oracles can keep their dict lookups."""
    return {(a, b): k for a, row in enumerate(E.table) for b, k in enumerate(row)
            if k is not None}
