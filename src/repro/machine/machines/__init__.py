"""Concrete machine descriptions shipped with the toolkit.

Each builder returns a fresh, validated, mutable
:class:`MicroArchitecture`.  Every machine registers a
:class:`repro.registry.MachineSpec` here — the single table the CLI,
fault campaigns and benchmarks resolve against; ``get_machine``/
``machine_names`` remain as thin wrappers over the registry for
existing callers, and ``get_machine`` returns the registry's one
frozen instance per name.
"""

from __future__ import annotations

from repro.machine.machine import MicroArchitecture
from repro.machine.machines.cm1 import build_cm1
from repro.machine.machines.hm1 import build_hm1
from repro.machine.machines.hp300 import build_hp300
from repro.machine.machines.id3200 import build_id3200
from repro.machine.machines.vax import build_vax
from repro.machine.machines.vm1 import build_vm1
from repro.registry import MachineSpec, build_machine
from repro.registry import machine_names as _registry_machine_names
from repro.registry import register_machine

register_machine(MachineSpec(
    name="HM1", builder=build_hm1, organisation="horizontal",
    description="clean horizontal machine (Tucker-Flynn flavoured)",
    capabilities=("multiway_branch", "phase_chaining"),
))
register_machine(MachineSpec(
    name="CM1", builder=build_cm1, organisation="horizontal",
    description="HM1 with a CHAMIL-style restricted datapath "
                "routed through a bus latch",
    capabilities=("multiway_branch", "restricted_datapath"),
))
register_machine(MachineSpec(
    name="HP300m", builder=build_hp300, organisation="horizontal",
    description="regular, well-documented horizontal machine "
                "(YALLL's good target)",
    capabilities=("multiway_branch",),
))
register_machine(MachineSpec(
    name="VAXm", builder=build_vax, organisation="horizontal",
    description="baroque, irregular micro-architecture "
                "(YALLL's bad target)",
    capabilities=(),
))
register_machine(MachineSpec(
    name="VM1", builder=build_vm1, organisation="vertical",
    description="vertical machine: one micro-operation per word",
    capabilities=(),
))
register_machine(MachineSpec(
    name="ID3200m", builder=build_id3200, organisation="horizontal",
    description="Interdata-like register-block machine "
                "(the 2.1.2 new-block-vs-push discussion)",
    capabilities=("register_blocks",),
))


def machine_names() -> list[str]:
    """Names of all machines shipped with the toolkit."""
    return _registry_machine_names()


def get_machine(name: str) -> MicroArchitecture:
    """The process's one frozen machine description for ``name``
    (:func:`repro.registry.build_machine`); the builders return fresh,
    mutable ones."""
    return build_machine(name)


__all__ = [
    "build_cm1",
    "build_hm1",
    "build_hp300",
    "build_id3200",
    "build_vax",
    "build_vm1",
    "get_machine",
    "machine_names",
]
