"""The traced benchmark run wraps entry points that exist.

``perfbench/trace.py`` instruments every layer by replacing
``owner.__dict__[attribute]`` for the length of a ``--trace 1`` run. A
refactor that renames, moves or inherits one of those names would only
surface when someone runs the traced benchmark; these tests surface it in
the fast tier instead.
"""

from perfbench.trace import LAYERS, Tracer, _layer_points


def test_every_layer_point_resolves():
    for name, owner, attribute, _ in _layer_points():
        where = f"{name}: {owner.__name__}.{attribute}"
        assert attribute in vars(owner), f"{where} is not defined on its owner"
        assert callable(vars(owner)[attribute]), f"{where} is not callable"
        assert name.split(".")[0] in LAYERS, f"{where} names an unknown layer"


def test_instrument_wraps_and_restores_every_point():
    originals = [
        (owner, attribute, vars(owner)[attribute])
        for _, owner, attribute, _ in _layer_points()
    ]
    with Tracer().instrument():
        for owner, attribute, original in originals:
            assert vars(owner)[attribute] is not original
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original
