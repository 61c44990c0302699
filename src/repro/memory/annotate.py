"""One-pass miss classification of a trace.

The epoch MLP simulator (:mod:`repro.core.mlpsim`) is swept across dozens of
core configurations per figure, but the *miss stream* depends only on the
trace and the memory-side configuration.  ``annotate_trace`` therefore runs
the memory hierarchy, branch predictor and sharing model exactly once and
attaches an :class:`AccessInfo` to every measured instruction; the simulator
then replays the annotated trace cheaply under any core configuration.

This mirrors the paper's methodology split: MLPsim consumes a trace plus
microarchitecture parameters, with cache behaviour resolved up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Protocol, Tuple

from ..frontend import BranchPredictor
from ..isa import Instruction
from ..isa.opcodes import InstructionClass, is_control
from .hierarchy import MemorySystem


class CoherenceTicker(Protocol):
    """Anything that injects remote coherence traffic between instructions.

    Structurally matched by :class:`repro.multiproc.MultiChipSystem`; kept as
    a protocol so the memory package does not depend on the multiprocessor
    package.
    """

    memory: MemorySystem

    def tick(self) -> None: ...


@dataclass(slots=True, frozen=True)
class AccessInfo:
    """Core-configuration-independent classification of one instruction.

    ``inst_miss``    — its fetch missed the L2 (off-chip instruction miss).
    ``data_miss``    — its data access missed the L2 (off-chip load/store).
    ``smac_hit``     — store miss whose latency the SMAC hides.
    ``upgrade``      — store hit the L2 in Shared state (ownership-only miss).
    ``mispredicted`` — control transfer the front end got wrong.
    """

    inst_miss: bool = False
    data_miss: bool = False
    smac_hit: bool = False
    upgrade: bool = False
    mispredicted: bool = False


#: The simulator's input form: measured instructions with their classification.
AnnotatedTrace = List[Tuple[Instruction, AccessInfo]]

#: Interning table for the 32 possible flag combinations, indexed by
#: :func:`access_index`.  Annotated traces are held for the lifetime of a
#: sweep (and cached across sweep points by the harness/engine caches), so
#: sharing one immutable record per classification keeps millions of
#: per-instruction annotations from each carrying their own object.  The
#: columnar artifact codec (:mod:`repro.trace.columns`) stores the index.
ACCESS_INFOS: Tuple[AccessInfo, ...] = tuple(
    AccessInfo(*(bool(index >> bit & 1) for bit in range(5)))
    for index in range(32)
)


def _flags_index(
    inst_miss: bool,
    data_miss: bool,
    smac_hit: bool,
    upgrade: bool,
    mispredicted: bool,
) -> int:
    return (
        (1 if inst_miss else 0)
        | (2 if data_miss else 0)
        | (4 if smac_hit else 0)
        | (8 if upgrade else 0)
        | (16 if mispredicted else 0)
    )


def access_index(info: AccessInfo) -> int:
    """The position of *info*'s flag combination in :data:`ACCESS_INFOS`."""
    return _flags_index(
        info.inst_miss, info.data_miss, info.smac_hit, info.upgrade,
        info.mispredicted,
    )


def annotate_trace(
    trace: Iterable[Instruction],
    memory: MemorySystem,
    predictor: BranchPredictor | None = None,
    system: CoherenceTicker | None = None,
    warmup: int = 0,
) -> AnnotatedTrace:
    """Classify every instruction of *trace* against *memory*.

    The first *warmup* instructions prime the caches, predictor and SMAC;
    their classifications are discarded and all statistics counters are
    reset at the warmup boundary, mirroring the paper's warm-then-measure
    methodology.  When *system* is given, remote coherence traffic is
    interleaved between local instructions.
    """
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    if system is not None and system.memory is not memory:
        raise ValueError("system must wrap the same MemorySystem being annotated")

    annotated: AnnotatedTrace = []
    index = 0
    for inst in trace:
        if system is not None:
            system.tick()
        if index == warmup:
            memory.reset_stats()
            if predictor is not None:
                predictor.stats.reset()
        fetch = memory.fetch(inst.pc)
        info = _classify(inst, fetch.off_chip, memory, predictor)
        if index >= warmup:
            annotated.append((inst, info))
        index += 1
    return annotated


def _classify(
    inst: Instruction,
    inst_miss: bool,
    memory: MemorySystem,
    predictor: BranchPredictor | None,
) -> AccessInfo:
    data_miss = False
    smac_hit = False
    upgrade = False
    mispredicted = False
    kind = inst.kind
    if kind is InstructionClass.CAS:
        # casa performs a load and a store atomically to the same line.
        load_outcome = memory.load(inst.address)
        store_outcome = memory.store(inst.address)
        data_miss = load_outcome.off_chip or store_outcome.off_chip
        smac_hit = store_outcome.smac_hit
        upgrade = store_outcome.upgrade
    elif inst.is_store:
        outcome = memory.store(inst.address)
        data_miss = outcome.off_chip
        smac_hit = outcome.smac_hit
        upgrade = outcome.upgrade
    elif inst.is_load:
        outcome = memory.load(inst.address)
        data_miss = outcome.off_chip
    elif is_control(kind) and predictor is not None:
        mispredicted = predictor.observe(inst)
    return ACCESS_INFOS[
        _flags_index(inst_miss, data_miss, smac_hit, upgrade, mispredicted)
    ]
