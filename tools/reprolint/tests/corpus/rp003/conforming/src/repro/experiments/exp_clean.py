"""RP003 conforming: one lazy registration, no import-time work."""

from repro.experiments.registry import register

GRID = (1, 2, 3)


@register
def exp_clean():
    return sum(GRID)
