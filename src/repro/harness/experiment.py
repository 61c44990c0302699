"""The Workbench: cached end-to-end experiment plumbing.

.. deprecated:: entry point
   Constructing a :class:`Workbench` directly still works, but new code
   should go through :mod:`repro.api` (``api.run`` / ``api.workbench``),
   which fronts this module, the parallel engine and the service client
   with one surface.

Pipeline per (workload, variant):

1. calibrate the profile against Table 1 (cached per workload),
2. generate the instruction trace (cached),
3. apply trace transformations — WC lock rewriting and/or SLE (cached),
4. annotate through the memory hierarchy, branch predictor and sharing
   model (cached per memory-side configuration),
5. run MLPsim for each core configuration (cheap; not cached).

Figure sweeps re-run step 5 dozens of times against one cached annotation,
mirroring the paper's methodology where cache behaviour is independent of
the core parameters being swept.

Caching is delegated to :class:`repro.engine.cache.ArtifactCache`: every
artifact is keyed by a content hash of the inputs that produced it (profile
+ settings + variant + memory configuration), held in an in-memory LRU and
— unless disabled with ``cache_dir=None`` — written through to a persistent
cache directory shared between processes and invocations.  That is what
lets :class:`repro.engine.runner.EngineRunner` worker processes reuse one
calibration/generation/annotation across a whole parallel sweep, and what
makes the second invocation of a figure sweep start warm.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import (
    ConsistencyModel,
    MemoryConfig,
    SimulationConfig,
    SystemConfig,
)
from ..core import SimulationResult
from ..core.backend import resolve_backend
from ..core.cpi import PAPER_CPI_ON_CHIP
from ..core.window import WindowObserver
from ..engine import serialize
from ..engine.cache import ArtifactCache, content_key, resolve_cache_dir
from ..frontend import BranchPredictor
from ..isa import Instruction
from ..locks import apply_sle, apply_transactional_memory, rewrite_pc_to_wc
from ..memory import AnnotatedTrace, MemorySystem, annotate_trace
from ..multiproc import MultiChipSystem, SharingModel
from ..trace.columns import ColumnarAnnotation, ColumnarTrace
from ..workloads import WORKLOADS, WorkloadProfile, calibrate_profile
from ..workloads.generator import WorkloadGenerator


@dataclass(frozen=True)
class ExperimentSettings:
    """Trace sizing and seeding shared by all experiments."""

    warmup: int = 40_000
    measure: int = 120_000
    seed: int = 7
    calibrate: bool = True

    @property
    def total(self) -> int:
        return self.warmup + self.measure


@dataclass(frozen=True)
class SharingSettings:
    """Remote-traffic model parameters for multi-chip experiments."""

    nodes: int = 2
    write_rate_per_1000: float = 1.2
    read_rate_per_1000: float = 0.4


class Workbench:
    """Caches every expensive stage of the experiment pipeline.

    *cache_dir* follows :func:`repro.engine.cache.resolve_cache_dir`:
    ``"auto"`` (the default) persists artifacts under ``$REPRO_CACHE_DIR``
    or ``.repro-cache``; ``None`` keeps the cache in-memory only; any other
    value is used as the cache directory.  Pass an existing *artifacts*
    cache to share one between workbenches.
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        cache_dir: object = "auto",
        artifacts: ArtifactCache | None = None,
        memory_entries: int = 128,
    ) -> None:
        self.settings = settings or ExperimentSettings()
        self.artifacts = artifacts if artifacts is not None else ArtifactCache(
            resolve_cache_dir(cache_dir), memory_entries=memory_entries,
        )
        self._profiles: Dict[str, WorkloadProfile] = {}
        #: (workload, variant, tag, sharing) -> the content key of the last
        #: annotation made under that name, and the arguments that rebuild
        #: it.  :meth:`memory_for` resolves names through this map.  (Plain
        #: data, not a closure over ``self``: a reference cycle would keep
        #: every dropped Workbench and its in-memory artifacts alive until
        #: a full collection.)
        self._annotations: Dict[tuple, Tuple[str, tuple]] = {}

    # -- profiles / traces ----------------------------------------------------

    def profile(self, workload: str) -> WorkloadProfile:
        """The (calibrated) profile for *workload*."""
        if workload not in self._profiles:
            base = WORKLOADS[workload]
            if self.settings.calibrate:
                instructions = min(150_000, self.settings.total)
                warmup = min(50_000, self.settings.warmup + 10_000)
                key = content_key(
                    "profile", base, instructions, warmup, self.settings.seed,
                )
                base = self.artifacts.get_or_create(
                    "profile", key,
                    lambda: calibrate_profile(
                        base,
                        instructions=instructions,
                        warmup=warmup,
                        seed=self.settings.seed,
                    ),
                )
            self._profiles[workload] = base
        return self._profiles[workload]

    def set_profile(self, workload: str, profile: WorkloadProfile) -> None:
        """Install a custom profile (e.g. the scaled SMAC variant).

        Content addressing makes downstream artifacts self-invalidating —
        the new profile hashes to new trace/annotation keys — so only the
        by-name annotation map of :meth:`memory_for` needs explicit
        dropping.
        """
        self._profiles[workload] = profile
        self._annotations = {
            name: value for name, value in self._annotations.items()
            if name[0] != workload
        }

    def trace(self, workload: str, variant: str = "pc") -> List[Instruction]:
        """The instruction trace for a workload under a lock-idiom variant.

        Variants: ``pc`` (native TSO), ``wc`` (lock idioms rewritten to
        lwarx/stwcx/isync + lwsync), ``pc_sle``/``wc_sle`` (locks elided),
        ``pc_tm``/``wc_tm`` (critical sections run as transactions).
        """
        profile = self.profile(workload)
        key = content_key(
            "trace", profile, self.settings.total, self.settings.seed, variant,
        )
        return self.artifacts.get_or_create(
            "trace", key,
            lambda: ColumnarTrace(self._build_trace(workload, profile, variant)),
        )

    def _build_trace(
        self, workload: str, profile: WorkloadProfile, variant: str
    ) -> List[Instruction]:
        if variant == "pc":
            generator = WorkloadGenerator(profile, seed=self.settings.seed)
            return generator.generate(self.settings.total)
        base = self.trace(workload, "pc")
        if variant == "wc":
            return rewrite_pc_to_wc(base)
        if variant == "pc_sle":
            return apply_sle(base)
        if variant == "wc_sle":
            return apply_sle(rewrite_pc_to_wc(base))
        if variant == "pc_tm":
            return apply_transactional_memory(base)
        if variant == "wc_tm":
            return apply_transactional_memory(rewrite_pc_to_wc(base))
        raise ValueError(f"unknown trace variant {variant!r}")

    # -- annotation ------------------------------------------------------------

    def annotated(
        self,
        workload: str,
        variant: str = "pc",
        memory_config: MemoryConfig | None = None,
        sharing: SharingSettings | None = None,
        tag: str = "",
    ) -> AnnotatedTrace:
        """Miss-classified measurement window for a workload variant.

        The cache key hashes the profile, trace sizing, variant, memory
        configuration and sharing model, so different SMAC geometries never
        collide; *tag* remains a human-readable discriminator used by
        :meth:`memory_for`.
        """
        config = memory_config or MemoryConfig()
        profile = self.profile(workload)
        predictor_config = SimulationConfig().core.branch
        key = content_key(
            "annotation", profile, self.settings.total, self.settings.warmup,
            self.settings.seed, variant, config, sharing, tag,
            predictor_config,
        )
        build_args = (workload, variant, config, sharing, profile)

        def annotate() -> ColumnarAnnotation:
            # The memory system that produced the annotation is stored
            # under its own kind, so a run that only simulates never loads
            # it; memory_for does, on demand.
            annotated, memory = self._build_annotation(*build_args)
            self.artifacts.put("memory", key, memory)
            return ColumnarAnnotation(annotated)

        self._annotations[(workload, variant, tag, sharing)] = (key, build_args)
        return self.artifacts.get_or_create("annotation", key, annotate)

    def _build_annotation(
        self,
        workload: str,
        variant: str,
        config: MemoryConfig,
        sharing: SharingSettings | None,
        profile: WorkloadProfile,
    ) -> tuple:
        system = None
        nodes = sharing.nodes if sharing is not None else 2
        memory = MemorySystem(config, single_chip=(nodes == 1))
        if sharing is not None and sharing.nodes > 1:
            generator = WorkloadGenerator(profile, seed=self.settings.seed)
            shared_region = generator.space["shared"]
            model = SharingModel(
                shared_base=shared_region.base,
                shared_bytes=shared_region.size,
                write_rate_per_1000=sharing.write_rate_per_1000,
                read_rate_per_1000=sharing.read_rate_per_1000,
                remote_nodes=sharing.nodes - 1,
                seed=self.settings.seed + 1,
            )
            system = MultiChipSystem(
                config, SystemConfig(nodes=sharing.nodes), sharing=model
            )
            memory = system.memory
        predictor = BranchPredictor(SimulationConfig().core.branch)
        annotated = annotate_trace(
            self.trace(workload, variant),
            memory,
            predictor=predictor,
            system=system,
            warmup=self.settings.warmup,
        )
        return annotated, memory

    def memory_for(
        self,
        workload: str,
        variant: str = "pc",
        sharing: SharingSettings | None = None,
        tag: str = "",
    ) -> MemorySystem:
        """The memory system that produced an annotation (for its counters).

        Loaded lazily from the ``memory`` artifact the annotation's build
        stored; rebuilt (with its annotation) if that entry is gone.
        """
        name = (workload, variant, tag, sharing)
        if name not in self._annotations:
            raise KeyError(
                f"annotate {name} first via Workbench.annotated(...)"
            )
        key, build_args = self._annotations[name]
        return self.artifacts.get_or_create(
            "memory", key, lambda: self._build_annotation(*build_args)[1],
        )

    # -- simulation ---------------------------------------------------------------

    def simulation_config(self, workload: str, **core_changes) -> SimulationConfig:
        """Default simulation config with the workload's Table 3 CPI."""
        config = dataclasses.replace(
            SimulationConfig(),
            cpi_on_chip=PAPER_CPI_ON_CHIP.get(workload, 1.0),
            warmup_instructions=self.settings.warmup,
            measure_instructions=self.settings.measure,
        )
        if core_changes:
            config = config.with_core(**core_changes)
        return config

    def resolved_config(
        self,
        workload: str,
        variant: str = "pc",
        config: Optional[SimulationConfig] = None,
        **core_changes,
    ) -> SimulationConfig:
        """The effective simulation config for one (workload, variant) run.

        Applies the same resolution :meth:`run` uses — workload defaults,
        explicit overrides, and the forced WC consistency model for ``wc*``
        variants — so callers that need the config *without* running (shard
        planning, checkpoint keys) agree exactly with the simulation path.
        """
        if config is None:
            config = self.simulation_config(workload, **core_changes)
        elif core_changes:
            config = config.with_core(**core_changes)
        if variant.startswith("wc") and (
            config.core.consistency is not ConsistencyModel.WC
        ):
            config = config.with_core(consistency=ConsistencyModel.WC)
        return config

    def run(
        self,
        workload: str,
        variant: str = "pc",
        memory_config: MemoryConfig | None = None,
        sharing: SharingSettings | None = None,
        tag: str = "",
        config: Optional[SimulationConfig] = None,
        observer: Optional[WindowObserver] = None,
        backend: Optional[str] = None,
        **core_changes,
    ) -> SimulationResult:
        """Annotate (cached) and simulate one configuration.

        *observer* (e.g. an :class:`repro.obs.EpochTimelineRecorder`)
        attaches to the simulator run; ``None`` keeps the unobserved hot
        path.  *backend* selects the execution backend (``"reference"``,
        ``"event"``); ``None`` defers to ``$REPRO_BACKEND`` and then the
        default.  Every backend returns a bit-identical result, so the
        choice never changes what is measured.
        """
        annotated = self.annotated(workload, variant, memory_config, sharing, tag)
        config = self.resolved_config(workload, variant, config, **core_changes)
        return resolve_backend(backend).simulate(
            config, annotated, observer=observer,
        )


serialize.register(ExperimentSettings, SharingSettings)
