"""CONGEST synchronous round simulator (the Section-2 model substrate).

The simulator executes a randomized protocol over a dynamic network whose
per-round topology is chosen by an adversary.  Each round proceeds exactly
as in the paper's model:

1. every node draws its coins for the round;
2. every node commits to an action — send one bounded-size message, or
   receive — as a deterministic function of its state and coins;
3. the adversary, who sees the protocol, all states, and all coin flips so
   far (hence the committed actions, but no future coins), picks a
   connected topology for the round;
4. each receiving node is handed the payloads of all sending neighbours;
5. nodes update state; outputs are recorded.

Public API: :class:`~repro.sim.node.ProtocolNode`,
:class:`~repro.sim.engine.SynchronousEngine`,
:class:`~repro.sim.coins.CoinSource`, the :mod:`~repro.sim.actions`
algebra, the :class:`~repro.sim.config.RunConfig` facade, and the
:mod:`~repro.sim.runner` convenience helpers.  Two interchangeable
execution backends implement the model: the reference engine and the
vectorized :class:`~repro.sim.batch.BatchEngine` (bit-identical on
oblivious *and* adaptive adversaries; see ``docs/PERFORMANCE.md``).
Both engines execute each round as the same staged protocol
(``ROUND_STAGES``), steppable stage-by-stage via ``step_stages()``.
"""

from .actions import Action, Receive, Send
from .batch import BatchEngine, ScheduleTape, build_engine
from .coins import Coins, CoinSource
from .config import (
    BACKEND_ENV,
    BACKENDS,
    CACHE_ENV,
    CACHE_MODES,
    RunConfig,
    resolve_backend,
    resolve_cache,
)
from .engine import ROUND_STAGES, StageEvent, SynchronousEngine
from .factories import BoundNode, Constant, NodeSet
from .messages import congest_budget
from .node import ProtocolNode
from .parallel import WORKERS_ENV, ParallelExecutor, resolve_workers
from .runner import ProtocolRun, replicate, run_protocol
from .trace import ExecutionTrace, RoundRecord

__all__ = [
    "Action",
    "Send",
    "Receive",
    "Coins",
    "CoinSource",
    "SynchronousEngine",
    "ROUND_STAGES",
    "StageEvent",
    "BatchEngine",
    "ScheduleTape",
    "build_engine",
    "RunConfig",
    "BACKENDS",
    "BACKEND_ENV",
    "resolve_backend",
    "CACHE_MODES",
    "CACHE_ENV",
    "resolve_cache",
    "congest_budget",
    "ProtocolNode",
    "ProtocolRun",
    "run_protocol",
    "replicate",
    "ExecutionTrace",
    "RoundRecord",
    "BoundNode",
    "NodeSet",
    "Constant",
    "ParallelExecutor",
    "resolve_workers",
    "WORKERS_ENV",
]
