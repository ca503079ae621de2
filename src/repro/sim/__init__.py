"""Microarchitecture simulator (survey substrate S7)."""

from repro.sim.admission import fast_path_refusal
from repro.sim.batch import BatchCase, BatchedState, LaneOutcome, run_cases
from repro.sim.memory import MainMemory, Scratchpad
from repro.sim.semantics import STATEFUL_OPS, condition_holds, evaluate
from repro.sim.simulator import RunResult, Simulator
from repro.sim.state import MachineState, StateBackend
from repro.sim.trace import TraceJIT, TraceStats

__all__ = [
    "BatchCase",
    "BatchedState",
    "LaneOutcome",
    "MachineState",
    "MainMemory",
    "RunResult",
    "STATEFUL_OPS",
    "Scratchpad",
    "Simulator",
    "StateBackend",
    "TraceJIT",
    "TraceStats",
    "condition_holds",
    "evaluate",
    "fast_path_refusal",
    "run_cases",
]
