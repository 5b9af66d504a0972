"""Two-time-scale multistage stochastic optimization.

Lower and upper bounds on day-scale value functions via price and resource
decomposition of the intraday problems, online policy synthesis, and a
long-term battery aging/renewal case study with brute-force validation
oracles.
"""

from .core import Grid, GridValueFn, LawTable, fenchel_conjugate
from .battery import BatteryConfig, BatteryState, ScenarioSet
from .intraday import (
    PRICE,
    RESOURCE,
    Decomposition,
    FastStage,
    FastStageModel,
    IntradayTable,
    PeriodicityClassMap,
    build_periodicity_classes,
    compute_intraday,
    solve_fast_dp,
)
from .slowscale import (
    BoundReport,
    DayObjective,
    SlowValueSeq,
    block_bellman_solve,
    check_sandwich,
    generic_price_recursion,
    generic_resource_recursion,
    price_bellman_recursion,
    resource_bellman_recursion,
)
from .policy import SimulationRecord, select_price, select_resource, simulate_policy
from .oracle import TinyProblem, complexity_estimate, enumerate_tree, flat_dp_solve
from .config import RunConfig

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
