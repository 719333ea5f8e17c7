import itertools
import sys

import numpy as np

from v2i_fairness.config import ExperimentConfig
from v2i_fairness.experiments import fairness_inputs, resolve_threshold
from v2i_fairness.nsga2 import pick_optimum
from v2i_fairness.sps_analytics import objective_batch


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-check verdicts after capture is released.

    The acceptance tests record one PASS/FAIL line each; printing them here
    keeps the one-line-per-check summary visible in a plain ``pytest -v`` run
    instead of being swallowed by output capture.
    """
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)


def window_grid(bounds: tuple[int, int], lanes: int) -> np.ndarray:
    """Every window vector within `bounds`, first lane most significant."""
    lb, ub = bounds
    return np.array(list(itertools.product(range(lb, ub + 1), repeat=lanes)))


def exhaustive_optima(config: ExperimentConfig) -> list[tuple[tuple[int, ...], int]]:
    """Threshold-filtered optimum and feasible count over the whole window grid, per point."""
    grid = window_grid(config.sps.window_bounds, config.scenario.num_lanes)
    found = []
    for avg_speed in config.sweep:
        inputs = fairness_inputs(config, config.lane_speeds_at(avg_speed))
        objectives = objective_batch(grid, inputs)
        threshold = resolve_threshold(config, inputs)
        optimum = pick_optimum(grid, objectives, threshold)
        found.append((optimum.windows,
                      int(np.all(objectives <= threshold, axis=1).sum())))
    return found
