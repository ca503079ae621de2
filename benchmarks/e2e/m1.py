"""M1 macro programs for the microcoded M1 interpreter, with references.

Both programs run on :mod:`repro.bench.macrosys`'s interpreter, so every
macro instruction pays the fetch-decode-execute loop and its multiway
dispatch.  M1 has no indexed addressing, so both use the classic
self-modifying idiom: build an ``LDA``/``STA`` word with ``ADD`` and
store it where the next instruction will be fetched.

* :func:`translit_image` is the E10 transliteration: rewrite a
  zero-terminated string through a table, one character per trip.
* :func:`match_image` is a REC-style pattern matcher (the nested
  text x pattern loops of the REC/IBM 1130 and REC/PDP-8 papers): count
  the positions where a pattern occurs in a text.  The inner loop's trip
  count depends on the data, so lanes with different texts diverge.

Each image function returns a :class:`MacroCase`: the memory image (program
plus data), the entry address, and what a correct run must leave
behind, computed in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.macrosys import assemble_macro

#: Where the macro program is loaded; data lives above it.
PROGRAM_BASE = 0x100
STRING_BASE = 0x400
TABLE_BASE = 0x900
PATTERN_BASE = 0xA00
#: Characters are drawn from 1..ALPHABET-1 (0 terminates a string).
ALPHABET = 64

TRANSLIT = f"""
loop:   LDA ptr
        ADD op_lda        ; build 'LDA [ptr]'
        STA fetch1
fetch1: .word 0           ; acc := string char
        JZ  done
        ADD op_lda_tbl    ; build 'LDA [table + char]'
        STA fetch2
fetch2: .word 0           ; acc := table entry
        STA newch
        LDA ptr
        ADD op_sta        ; build 'STA [ptr]'
        STA store1
        LDA newch
store1: .word 0           ; string char := acc
        LDA ptr
        ADD one
        STA ptr
        JMP loop
done:   HALT
one:        .word 1
ptr:        .word {STRING_BASE}
newch:      .word 0
op_lda:     .word 0x1000
op_lda_tbl: .word {0x1000 + TABLE_BASE}
op_sta:     .word 0x2000
"""

MATCH = f"""
        LDI 0
        STA count
        LDI {STRING_BASE}
        STA ipos
        LDA windows
        STA outer
oloop:  LDA outer         ; for each window start ...
        JZ  done
        LDA ipos
        STA tp
        LDI {PATTERN_BASE}
        STA pp
        LDA plen
        STA inner
iloop:  LDA inner         ; ... compare the pattern char by char
        JZ  hit
        LDA tp
        ADD op_lda        ; build 'LDA [tp]'
        STA fetcht
fetcht: .word 0
        STA tc
        LDA pp
        ADD op_lda        ; build 'LDA [pp]'
        STA fetchp
fetchp: .word 0
        SUB tc
        JZ  same
        JMP next          ; mismatch: next window
same:   LDA tp
        ADD one
        STA tp
        LDA pp
        ADD one
        STA pp
        LDA inner
        SUB one
        STA inner
        JMP iloop
hit:    LDA count
        ADD one
        STA count
next:   LDA ipos
        ADD one
        STA ipos
        LDA outer
        SUB one
        STA outer
        JMP oloop
done:   LDA count
        HALT
count:   .word 0
ipos:    .word 0
outer:   .word 0
tp:      .word 0
pp:      .word 0
inner:   .word 0
tc:      .word 0
one:     .word 1
op_lda:  .word 0x1000
windows: .word 0
plen:    .word 0
"""


@dataclass(frozen=True)
class MacroCase:
    """One M1 run: memory image, entry point and the expected result."""

    memory: dict[int, int]
    entry: int
    exit_value: int
    #: ``(base, expected words)`` the run must leave in memory.
    region: tuple[int, tuple[int, ...]]


def _image(source: str) -> tuple[dict[int, int], dict[str, int]]:
    words, symbols = assemble_macro(source, PROGRAM_BASE)
    memory = {PROGRAM_BASE + i: word for i, word in enumerate(words)}
    return memory, {name: PROGRAM_BASE + at for name, at in symbols.items()}


def translit_image(text: list[int], table: list[int]) -> MacroCase:
    """The E10 transliteration of ``text`` (values 1..ALPHABET-1)."""
    memory, symbols = _image(TRANSLIT)
    for i, char in enumerate(text):
        memory[STRING_BASE + i] = char
    memory[STRING_BASE + len(text)] = 0
    for value, mapped in enumerate(table):
        memory[TABLE_BASE + value] = mapped
    expected = tuple(table[char] for char in text)
    return MacroCase(memory, symbols["loop"], 0, (STRING_BASE, expected))


def match_image(text: list[int], pattern: list[int]) -> MacroCase:
    """Count the occurrences of ``pattern`` in ``text``."""
    memory, symbols = _image(MATCH)
    for i, char in enumerate(text):
        memory[STRING_BASE + i] = char
    for i, char in enumerate(pattern):
        memory[PATTERN_BASE + i] = char
    memory[symbols["windows"]] = len(text) - len(pattern) + 1
    memory[symbols["plen"]] = len(pattern)
    m = len(pattern)
    count = sum(
        text[i:i + m] == pattern for i in range(len(text) - m + 1)
    )
    return MacroCase(
        memory, PROGRAM_BASE, count, (STRING_BASE, tuple(text))
    )

