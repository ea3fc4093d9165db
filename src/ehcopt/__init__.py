"""Design-time task allocation for streamlined edge/hub/cloud applications.

Pipeline: a profiled task graph is expanded over its candidate devices
(:mod:`ehcopt.etfg`), turned into a 0/1 integer program under a latency
or energy objective with device budgets (:mod:`ehcopt.milp`), and solved
exactly (:mod:`ehcopt.solver`).  :mod:`ehcopt.generator` produces seeded
random benchmarks and :mod:`ehcopt.analysis` reproduces the extreme-case
comparison methodology.
"""

from .etfg import Etfg, transform
from .milp import Objective, build_model, evaluate, model_stats
from .model import (
    Channel,
    Device,
    DeviceRole,
    SystemModel,
    Task,
    TaskGraph,
    load_system_model,
    load_task_graph,
    save_system_model,
    save_task_graph,
    validate_task_graph,
)
from .solver import (
    Allocation,
    SolveConfig,
    SolveStatus,
    solve,
    solve_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Channel",
    "Device",
    "DeviceRole",
    "Etfg",
    "Objective",
    "SolveConfig",
    "SolveStatus",
    "SystemModel",
    "Task",
    "TaskGraph",
    "build_model",
    "evaluate",
    "load_system_model",
    "load_task_graph",
    "model_stats",
    "save_system_model",
    "save_task_graph",
    "solve",
    "solve_bruteforce",
    "transform",
    "validate_task_graph",
]
