"""YALLL — Yet Another Low Level Language (survey §2.2.4, [16])."""

from repro.lang.yalll.ast import YalllProgram
from repro.lang.yalll.codegen import YalllCodegen, generate
from repro.lang.yalll.compiler import compile_yalll
from repro.lang.yalll.parser import parse_yalll

__all__ = [
    "YalllCodegen",
    "YalllProgram",
    "compile_yalll",
    "generate",
    "parse_yalll",
]
