"""The single language/machine registry (survey substrate S18).

Three independent dispatch tables — ``cli.py``'s ``COMPILERS``, the
fault campaign's compiler map and the benchmark corpus — used to be
kept in sync by hand.  They now all resolve through this module:
adding a language is one ``register_language`` call in its front end,
adding a machine one ``register_machine`` call next to its builder.

Specs are declarative.  A :class:`LanguageSpec` names its front end,
carries its :class:`~repro.pipeline.core.Pipeline` and advertises
capabilities (the survey's design-issue vocabulary: programmer
binding, symbolic variables, verification, …); a
:class:`MachineSpec` names a builder and the machine's organisation.
Registration happens at import of ``repro.lang`` / ``repro.machine.
machines``; lookup functions import those packages lazily, so the
registry itself stays dependency-free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import MachineError, ReproError
from repro.obs.tracer import NULL_TRACER


class RegistryError(ReproError):
    """An unknown language name, or a malformed registration."""


# ----------------------------------------------------------------------
# Languages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LanguageSpec:
    """One registered front end.

    Attributes:
        name: Lookup key (``"yalll"``).
        title: Human-readable long name.
        section: Where the survey treats the language.
        pipeline: The language's compilation pipeline.
        capabilities: Design-issue vocabulary the language offers
            (``programmer_binding``, ``symbolic_variables``,
            ``verification``, ``par_extension``, …).
        default_composer: Name of the historical default composition
            strategy (reported by ``python -m repro languages``).
    """

    name: str
    title: str
    section: str
    pipeline: object
    capabilities: tuple[str, ...] = ()
    default_composer: str = ""

    def compile(self, source, machine, *, tracer=NULL_TRACER, cache=None,
                dump_after=None, **options):
        """Compile through the language's pipeline (uniform signature)."""
        return self.pipeline.run(
            source, machine, tracer=tracer, cache=cache,
            dump_after=dump_after, **options,
        )

    def has(self, capability: str) -> bool:
        return capability in self.capabilities

    def stage_names(self) -> tuple[str, ...]:
        return self.pipeline.stage_names()


_LANGUAGES: dict[str, LanguageSpec] = {}


def register_language(spec: LanguageSpec) -> LanguageSpec:
    """Register a front end; re-registration must be identical-by-name.

    Idempotent per name so module reloads don't explode, but a second
    registration silently *replaces* only the same name — there is no
    aliasing.
    """
    _LANGUAGES[spec.name] = spec
    return spec


def _ensure_languages() -> None:
    if not _LANGUAGES:
        import repro.lang  # noqa: F401  (front ends register on import)


def language_names() -> list[str]:
    """Sorted names of every registered language."""
    _ensure_languages()
    return sorted(_LANGUAGES)


def get_language(name: str) -> LanguageSpec:
    """Look up a front end by name."""
    _ensure_languages()
    try:
        return _LANGUAGES[name]
    except KeyError:
        raise RegistryError(
            f"unknown language {name!r}; registered: "
            f"{', '.join(sorted(_LANGUAGES))}"
        ) from None


# ----------------------------------------------------------------------
# Differential-test program generators
# ----------------------------------------------------------------------
#: lang name -> generator callable ``(machine, rng, size) -> GeneratedCase``
#: (see :mod:`repro.difftest.generators`).  Kept beside the language
#: table so "every registered language has a generator" is a checkable
#: property, not a convention.
_GENERATORS: dict[str, Callable] = {}


def register_generator(lang: str, generator: Callable) -> Callable:
    """Register a difftest source generator for a language."""
    _GENERATORS[lang] = generator
    return generator


def _ensure_generators() -> None:
    if not _GENERATORS:
        import repro.difftest.generators  # noqa: F401  (registers on import)


def generator_names() -> list[str]:
    """Sorted names of every language with a registered generator."""
    _ensure_generators()
    return sorted(_GENERATORS)


def get_generator(lang: str) -> Callable:
    """Look up a difftest generator by language name."""
    _ensure_generators()
    try:
        return _GENERATORS[lang]
    except KeyError:
        raise RegistryError(
            f"no difftest generator for language {lang!r}; registered: "
            f"{', '.join(sorted(_GENERATORS))}"
        ) from None


# ----------------------------------------------------------------------
# Machines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineSpec:
    """One registered machine description builder.

    ``build()`` returns a fresh, validated, mutable
    :class:`~repro.machine.machine.MicroArchitecture`, for callers
    that change their copy; :func:`build_machine` hands out the
    process's one frozen instance.
    """

    name: str
    builder: Callable[[], object]
    organisation: str = "horizontal"
    description: str = ""
    capabilities: tuple[str, ...] = field(default=())

    def build(self):
        return self.builder()


_MACHINES: dict[str, MachineSpec] = {}


def register_machine(spec: MachineSpec) -> MachineSpec:
    """Register a machine description builder."""
    _MACHINES[spec.name] = spec
    return spec


def _ensure_machines() -> None:
    if not _MACHINES:
        import repro.machine.machines  # noqa: F401  (registers on import)


def machine_names() -> list[str]:
    """Names of every registered machine, in registration order."""
    _ensure_machines()
    return list(_MACHINES)


def get_machine_spec(name: str) -> MachineSpec:
    """Look up a machine spec by name."""
    _ensure_machines()
    try:
        return _MACHINES[name]
    except KeyError:
        # MachineError, not RegistryError: machine lookup predates the
        # registry and callers catch the machine-layer error.
        raise MachineError(
            f"unknown machine {name!r}; available: {', '.join(_MACHINES)}"
        ) from None


@functools.lru_cache(maxsize=None)
def build_machine(name: str):
    """The process's one frozen machine description for ``name``.

    Built and frozen on first use
    (:meth:`~repro.machine.machine.MicroArchitecture.freeze`), so its
    fingerprint is digested once, and the plans and traces a program
    image keeps for the machine it ran on
    (:func:`repro.sim.decode.image_tables`) serve every simulator of
    it.  A caller that needs to change a machine takes a fresh one from
    a builder (``repro.machine.machines.build_hm1`` …, or
    ``get_machine_spec(name).build()``).
    """
    return get_machine_spec(name).build().freeze()
