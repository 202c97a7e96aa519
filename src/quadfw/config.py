"""Solver configuration (shared by the CLI, the portfolio and the tree
search).  ``workers`` is the number of grid configs the portfolio runs
one after the other, each on a fair share of the time left.  A portfolio
gives worker ``w`` the seed ``seed + w`` and takes its penalty exponent
(or, for an all-binary QP, its convexification proportion) from the
grids; a direct solve uses ``seed`` as given and the default exponent of
``penalty.SmoothObjective`` unless it is handed an objective."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

DEFAULT_P_GRID = (1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8)
DEFAULT_ELL_GRID = (0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class Config:
    time_limit: float = 300.0
    workers: int = 8
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    ell_grid: tuple[float, ...] = DEFAULT_ELL_GRID
    fw_iter: int = 10
    restart_interval: int = 100
    seed: int = 0
    node_limit: int | None = None
    reference: float | None = None
    enable_asens: bool = True
    enable_undercover: bool = True
    enable_rins: bool = True
    enable_ftg: bool = True
    enable_lns: bool = True  # master switch, off inside recursive sub-solves

    def __post_init__(self) -> None:
        # NaN fails this too; an infinite limit would never end the search
        if not 0.0 <= self.time_limit < math.inf:
            raise ValueError("time limit must be finite and nonnegative")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if not self.p_grid or not self.ell_grid:
            raise ValueError("the p and ell grids must not be empty")
        if not all(1.0 < p < math.inf for p in self.p_grid):
            raise ValueError("penalty exponents must be finite and exceed 1")
        if any(not 0.0 <= e <= 1.0 for e in self.ell_grid):
            raise ValueError("convexification proportions must lie in [0, 1]")
        if not (10 <= self.restart_interval <= 1000):
            raise ValueError("restart interval must lie in [10, 1000]")
        if self.seed < 0:  # numpy's generators refuse a negative seed mid-run
            raise ValueError("seed must be nonnegative")
        if self.fw_iter < 0:
            raise ValueError("FW iteration budget must be nonnegative")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node limit must be nonnegative")
        # a NaN or infinite reference would write NaN into the report's metrics
        if self.reference is not None and not math.isfinite(self.reference):
            raise ValueError("reference objective must be finite")

    def for_worker(self, index: int) -> "Config":
        return replace(self, seed=self.seed + index)

    def echo(self) -> dict:
        return {
            "time_limit": self.time_limit,
            "workers": self.workers,
            "p_grid": list(self.p_grid),
            "ell_grid": list(self.ell_grid),
            "fw_iter": self.fw_iter,
            "restart_interval": self.restart_interval,
            "seed": self.seed,
            "node_limit": self.node_limit,
            "heuristics": {
                "asens": self.enable_asens,
                "undercover": self.enable_undercover,
                "rins": self.enable_rins,
                "ftg": self.enable_ftg,
            },
        }
