"""Circuit-to-architecture transpilation (layout + SWAP routing)."""

from .layout import (
    LAYOUTS,
    GreedyConnectedLayout,
    Layout,
    SnakeLayout,
    TrivialLayout,
)
from .routing import RoutedCircuit, route
from .transpiler import transpile

__all__ = [
    "LAYOUTS",
    "Layout",
    "TrivialLayout",
    "GreedyConnectedLayout",
    "RoutedCircuit",
    "route",
    "transpile",
]
