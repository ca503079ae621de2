"""Benchmark substrate (S14): workloads, corpus, hand-written
references, the macro system for E10, and table rendering."""

from repro.bench.handwritten import (
    HAND_CORPUS,
    HandProgram,
    hand_compile,
    run_hand,
)
from repro.bench.macrosys import (
    INTERPRETER,
    MacroSystem,
    OPCODES,
    assemble_macro,
    build_macro_system,
)
from repro.bench.programs import (
    CORPUS,
    ProgramRun,
    compile_program,
    run_program,
)
from repro.bench.reporting import render_table
from repro.bench.workloads import random_block, random_program

__all__ = [
    "CORPUS",
    "HAND_CORPUS",
    "HandProgram",
    "INTERPRETER",
    "MacroSystem",
    "OPCODES",
    "ProgramRun",
    "assemble_macro",
    "build_macro_system",
    "compile_program",
    "hand_compile",
    "random_block",
    "random_program",
    "render_table",
    "run_hand",
    "run_program",
]
