"""Velocity-adaptive SPS selection-window fairness experiments for NR V2I mode-2."""

__version__ = "0.7.0"
