"""The benchmark's programs, compiled, with seeded inputs and references.

:func:`compile_programs` compiles the six YALLL corpus programs and, on
machines with a multiway branch, the microcoded M1 interpreter, which
runs the two macro programs of :mod:`m1`.  Each program comes with an
input generator: given a :class:`random.Random` and an input size it
returns a :class:`Job` -- the initial registers and memory of one run
and what a correct run must leave behind, computed in Python.
Registers are physical, resolved through the program's allocation, so
one job serves a scalar simulator, a batch lane and a fault campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import m1
from repro.bench.macrosys import INTERPRETER
from repro.bench.programs import CORPUS
from repro.registry import get_language


@dataclass(frozen=True)
class Job:
    """One run's initial state and what a correct run leaves behind."""

    registers: dict[str, int]
    memory: dict[int, int]
    exit_value: int | None
    #: ``(base, words)`` the run must leave in memory, if any.
    region: tuple[int, tuple[int, ...]] | None = None


@dataclass
class Program:
    """A compiled program and its seeded input generator."""

    name: str
    source: str
    machine: object
    result: object
    make: Callable[..., Job]


#: Corpus data layout: two buffers of up to 8K words and a table.
A, B, TABLE = 0x1000, 0x3000, 0x800


def _chars(rng, n, alphabet=64):
    return [rng.randrange(1, alphabet) for _ in range(n)]


def _words(rng, n):
    return [rng.randrange(1 << 16) for _ in range(n)]


def _at(base, values):
    return {base + i: v for i, v in enumerate(values)}


def _corpus_makers(reg):
    def translit(rng, n):
        text = _chars(rng, n)
        table = [word or 1 for word in _words(rng, 64)]
        memory = {**_at(A, text + [0]), **_at(TABLE, table)}
        return Job({reg("str"): A, reg("tbl"): TABLE}, memory, None,
                   (A, tuple(table[c] for c in text)))

    def memcpy(rng, n):
        data = _words(rng, n)
        return Job({reg("src"): A, reg("dst"): B, reg("n"): n},
                   _at(A, data), None, (B, tuple(data)))

    def checksum(rng, n):
        data = _words(rng, n)
        folded = 0
        for word in data:
            folded ^= word
        return Job({reg("base"): A, reg("n"): n}, _at(A, data), folded)

    def bitcount(rng, _n):
        # Top bit set: always 16 trips, whatever the other bits.
        x = rng.randrange(0x8000, 0x10000)
        return Job({reg("x"): x}, {}, bin(x).count("1"))

    def strcmp(rng, n):
        a = _chars(rng, n)
        b = list(a)
        if rng.random() < 0.5:
            at = rng.randrange(n // 2, n)
            b[at] = b[at] % 63 + 1
        memory = {**_at(A, a + [0]), **_at(B, b + [0])}
        return Job({reg("a"): A, reg("b"): B}, memory, int(a != b))

    def fib(rng, n):
        n -= rng.randrange(4)
        a, b = 0, 1
        for _ in range(n):
            a, b = b, (a + b) & 0xFFFF
        return Job({reg("n"): n}, {}, a)

    return {"translit": translit, "memcpy": memcpy, "checksum": checksum,
            "bitcount": bitcount, "strcmp": strcmp, "fib": fib}


def _macro_makers(reg):
    def job(case: m1.MacroCase) -> Job:
        return Job({reg("pc"): case.entry, reg("acc"): 0}, case.memory,
                   case.exit_value, case.region)

    def translit(rng, n):
        return job(m1.translit_image(_chars(rng, n, m1.ALPHABET),
                                     _words(rng, m1.ALPHABET)))

    def match(rng, n):
        return job(m1.match_image(_chars(rng, n, 4), _chars(rng, 3, 4)))

    return {"m1_translit": translit, "m1_match": match}


def physical(result, machine, variable: str) -> str:
    """The register holding a program variable (allocated or named)."""
    mapping = result.allocation.mapping
    if variable in mapping:
        return mapping[variable]
    for name in machine.registers.names():
        if name.lower() == variable.lower():
            return name
    raise KeyError(f"{variable!r} has no register")


def compile_programs(machine) -> dict[str, Program]:
    """Every benchmark program ``machine`` can run, keyed by name."""
    spec = get_language("yalll")

    def compiled(source, resident):
        result = spec.compile(source, machine, name=resident)
        return result, lambda variable: physical(result, machine, variable)

    programs = {}
    for name, (source, _inputs) in CORPUS.items():
        result, reg = compiled(source, name)
        programs[name] = Program(name, source, machine, result,
                                 _corpus_makers(reg)[name])
    if machine.has_multiway_branch:
        result, reg = compiled(INTERPRETER, "m1-interp")
        for name, make in _macro_makers(reg).items():
            programs[name] = Program(name, INTERPRETER, machine, result, make)
    return programs
