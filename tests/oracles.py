"""Test-side second routes for the duality layer."""


def induced_state_self_map(alg, op, w):
    """g' on states of the affine-function algebra: the state at weights ``w``,
    precomposed with the pull-back ``op`` and read back through the indicator
    functions.  The pull-back route around the square p o g = g' o p."""
    return tuple(alg.evaluate(op.apply(alg.indicator(v)), w) for v in range(alg.m))
