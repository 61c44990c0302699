"""Columnar trace artifacts (repro.trace.columns) and their cache life."""

from __future__ import annotations

import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.engine import cache as cache_mod
from repro.engine.cache import ArtifactCache, content_key
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.isa import Instruction, InstructionClass
from repro.memory.annotate import ACCESS_INFOS, AccessInfo
from repro.trace import columns
from repro.trace.columns import ColumnarAnnotation, ColumnarTrace, gc_paused

#: The sizing and golden numbers of tests/test_golden_window.py.
GOLDEN_SETTINGS = ExperimentSettings(
    warmup=3000, measure=9000, seed=13, calibrate=False,
)
GOLDEN_DATABASE_EPOCHS = 205
GOLDEN_DATABASE_EPI = 22.777777778

U64_MAX = 2**64 - 1

#: Positions of the columns in the pickled argument tuple.
COLUMN_ARGS = {
    "kind": 1, "pc": 2, "address": 3, "target": 4, "size": 5,
    "dest": 6, "srcs": 7, "flags": 9, "access": 10,
}


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _info(index: int) -> AccessInfo:
    """A fresh (not interned) AccessInfo for flag combination *index*."""
    return AccessInfo(*(bool(index >> bit & 1) for bit in range(5)))


class _Forged:
    """Pickles as a decoder call with arbitrary (possibly damaged) columns."""

    def __init__(self, decoder, args):
        self.decoder, self.args = decoder, args

    def __reduce__(self):
        return (self.decoder, self.args)


def _sample_annotation():
    kinds = list(InstructionClass)
    return [
        (
            Instruction(
                kind=kinds[i % len(kinds)], pc=0x1000 + 4 * i,
                address=64 * i, size=8, dest=i % 7 - 1,
                srcs=((), (1,), (2, 3))[i % 3], taken=bool(i & 1),
                target=0x2000 + i, lock_acquire=bool(i & 2),
                lock_release=bool(i & 4),
            ),
            _info(i % 32),
        )
        for i in range(64)
    ]


# ------------------------------------------------------- round trips --

_u64 = st.one_of(st.sampled_from([0, 1, U64_MAX]), st.integers(0, U64_MAX))

_instructions = st.builds(
    Instruction,
    kind=st.sampled_from(list(InstructionClass)),
    pc=_u64,
    address=_u64,
    size=st.integers(0, 255),
    dest=st.one_of(st.just(-1), st.integers(-128, 127)),
    srcs=st.one_of(
        st.just(()),
        st.tuples(st.integers(0, 63)),
        st.lists(st.integers(-1, 63), min_size=2, max_size=4).map(tuple),
    ),
    taken=st.booleans(),
    target=_u64,
    lock_acquire=st.booleans(),
    lock_release=st.booleans(),
)


class TestRoundTrip:
    @settings(deadline=None, max_examples=80)
    @given(st.lists(_instructions, max_size=40))
    def test_trace_decodes_equal(self, trace):
        decoded = _roundtrip(ColumnarTrace(trace))
        assert type(decoded) is list
        assert decoded == trace

    @settings(deadline=None, max_examples=80)
    @given(st.lists(
        st.tuples(_instructions, st.integers(0, 31)), max_size=40,
    ))
    def test_annotation_decodes_equal_with_interned_infos(self, pairs):
        annotated = [(inst, _info(index)) for inst, index in pairs]
        decoded = _roundtrip(ColumnarAnnotation(annotated))
        assert type(decoded) is list
        assert decoded == annotated
        for (_, info), (_, index) in zip(decoded, pairs):
            assert info is ACCESS_INFOS[index]

    def test_every_kind_flag_and_access_combination(self):
        annotated = _sample_annotation()
        kinds = {inst.kind for inst, _ in annotated}
        flags = {
            (inst.taken, inst.lock_acquire, inst.lock_release)
            for inst, _ in annotated
        }
        assert kinds == set(InstructionClass)
        assert len(flags) == 8
        decoded = _roundtrip(ColumnarAnnotation(annotated))
        assert decoded == annotated
        assert {id(info) for _, info in decoded} == set(map(id, ACCESS_INFOS))

    def test_distinct_srcs_are_stored_once(self):
        trace = [
            Instruction(kind=InstructionClass.ALU, pc=i, srcs=(i % 3, 9))
            for i in range(300)
        ]
        args = ColumnarTrace(trace).__reduce__()[1]
        assert sorted(args[8]) == [(0, 9), (1, 9), (2, 9)]

    def test_empty(self):
        assert _roundtrip(ColumnarTrace()) == []
        assert _roundtrip(ColumnarAnnotation()) == []


class TestEncodeDomain:
    @pytest.mark.parametrize("field, value", [
        ("pc", -1),
        ("address", 2**64),
        ("target", -5),
        ("size", 256),
        ("dest", 128),
        ("dest", -129),
    ])
    def test_out_of_domain_value_raises_at_encode(self, field, value):
        inst = Instruction(kind=InstructionClass.LOAD, pc=0x40, size=8)
        setattr(inst, field, value)
        with pytest.raises(OverflowError):
            pickle.dumps(ColumnarTrace([inst]))
        with pytest.raises(OverflowError):
            pickle.dumps(ColumnarAnnotation([(inst, ACCESS_INFOS[0])]))


# ----------------------------------------------------- strict decoding --


class TestStrictDecode:
    @pytest.mark.parametrize("column", sorted(COLUMN_ARGS))
    def test_short_column_is_rejected(self, column):
        decoder, args = ColumnarAnnotation(_sample_annotation()).__reduce__()
        args = list(args)
        position = COLUMN_ARGS[column]
        width = len(args[position]) // args[0]
        args[position] = args[position][:-width]
        enabled = gc.isenabled()
        with pytest.raises(pickle.UnpicklingError, match=column):
            pickle.loads(pickle.dumps(_Forged(decoder, tuple(args))))
        assert gc.isenabled() == enabled

    def test_srcs_index_out_of_range_is_rejected(self):
        decoder, args = ColumnarTrace(
            [inst for inst, _ in _sample_annotation()]
        ).__reduce__()
        args = list(args)
        args[8] = args[8][:-1]  # drop the last distinct srcs tuple
        with pytest.raises(pickle.UnpicklingError, match="srcs"):
            pickle.loads(pickle.dumps(_Forged(decoder, tuple(args))))

    @pytest.mark.parametrize("column, value", [
        ("kind", len(InstructionClass)),
        ("flags", 8),
        ("access", 32),
    ])
    def test_unknown_ordinal_is_rejected(self, column, value):
        decoder, args = ColumnarAnnotation(_sample_annotation()).__reduce__()
        args = list(args)
        position = COLUMN_ARGS[column]
        args[position] = args[position][:-1] + bytes([value])
        with pytest.raises(pickle.UnpicklingError, match=column):
            pickle.loads(pickle.dumps(_Forged(decoder, tuple(args))))


# ------------------------------------------------------------ GC pause --


class TestGcPaused:
    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_when_body_raises(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("decode failed")
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_overlapping_threads_reenable_only_at_the_outermost_exit(self):
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with gc_paused():
                first_in.set()
                second_in.wait(5)
            seen["after_first_exit"] = gc.isenabled()
            first_out.set()

        def second():
            first_in.wait(5)
            with gc_paused():
                second_in.set()
                first_out.wait(5)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert seen == {"after_first_exit": False}
        assert gc.isenabled()

    def test_two_threads_decoding_at_once(self):
        blob = pickle.dumps(ColumnarAnnotation(_sample_annotation() * 50))
        expected = pickle.loads(blob)
        failures = []

        def decode():
            for _ in range(30):
                if pickle.loads(blob) != expected:
                    failures.append("mismatch")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=decode) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert gc.isenabled()
        assert columns._gc_depth == 0


# ---------------------------------------------- artifacts in the cache --


@pytest.fixture(scope="module")
def warm_dir(tmp_path_factory):
    """A cache directory holding the golden database annotation."""
    directory = tmp_path_factory.mktemp("warm-cache")
    Workbench(GOLDEN_SETTINGS, cache_dir=directory).run("database")
    return directory


def _only_entry(directory, kind):
    (path,) = (directory / kind).glob("*/*.pkl")
    return path


def _copy_cache(src, dst):
    for path in src.rglob("*.pkl"):
        target = dst / path.relative_to(src)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    return dst


class TestCachedArtifacts:
    def test_annotation_is_compact(self, warm_dir):
        """The stored annotation takes at most 40 bytes per measured
        instruction (an object pickle takes ~77)."""
        size = _only_entry(warm_dir, "annotation").stat().st_size
        assert size / GOLDEN_SETTINGS.measure <= 40

    def test_decoding_runs_with_the_collector_paused(
        self, warm_dir, monkeypatch,
    ):
        path = _only_entry(warm_dir, "annotation")
        trace_path = _only_entry(warm_dir, "trace")
        during = []
        decode = columns._instructions

        def spy(*args):
            during.append(gc.isenabled())
            return decode(*args)

        monkeypatch.setattr(columns, "_instructions", spy)
        collections = []

        def on_gc(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            value = pickle.loads(path.read_bytes())
            paused = len(collections)
            # The same objects pickled one by one trigger many collections,
            # so the probe can see a collector that runs.
            pickle.loads(pickle.dumps(value))
            unpaused = len(collections) - paused
        finally:
            gc.callbacks.remove(on_gc)
        assert len(value) == GOLDEN_SETTINGS.measure
        assert len(pickle.loads(trace_path.read_bytes())) == GOLDEN_SETTINGS.total
        assert during == [False, False]
        # At most the one young-generation pass that the allocations made
        # while paused leave due once the collector is back on.
        assert paused <= 1 < unpaused
        assert gc.isenabled()

    def test_damaged_artifact_is_a_miss_and_rebuilds(self, warm_dir, tmp_path):
        directory = _copy_cache(warm_dir, tmp_path / "cache")
        path = _only_entry(directory, "annotation")
        decoder, args = ColumnarAnnotation(
            pickle.loads(path.read_bytes())
        ).__reduce__()
        args = list(args)
        args[COLUMN_ARGS["address"]] = args[COLUMN_ARGS["address"]][:-8]
        path.write_bytes(pickle.dumps(_Forged(decoder, tuple(args))))

        enabled = gc.isenabled()
        cache = ArtifactCache(directory)
        assert cache.get("annotation", path.stem, default="miss") == "miss"
        assert cache.stats.misses == 1
        assert not path.exists()
        assert gc.isenabled() == enabled

        result = Workbench(GOLDEN_SETTINGS, cache_dir=directory).run("database")
        assert result.epoch_count == GOLDEN_DATABASE_EPOCHS
        assert result.epi_per_1000 == pytest.approx(GOLDEN_DATABASE_EPI, abs=1e-9)
        assert path.exists()

    def test_warm_run_never_loads_a_memory_system(
        self, warm_dir, monkeypatch,
    ):
        read = []
        original = ArtifactCache._read_disk

        def recording(self, kind, key):
            read.append(kind)
            return original(self, kind, key)

        monkeypatch.setattr(ArtifactCache, "_read_disk", recording)
        result = api.run(
            "database", settings=GOLDEN_SETTINGS, cache_dir=warm_dir,
        )
        assert result.epoch_count == GOLDEN_DATABASE_EPOCHS
        assert "annotation" in read
        assert "memory" not in read

    def test_memory_for_loads_lazily_with_identical_statistics(
        self, warm_dir, tmp_path,
    ):
        def counters(bench):
            bench.annotated("database")
            memory = bench.memory_for("database")
            return (memory.stats, memory.l1d.stats, memory.l2.stats)

        cold = counters(Workbench(GOLDEN_SETTINGS, cache_dir=None))
        assert counters(Workbench(GOLDEN_SETTINGS, cache_dir=warm_dir)) == cold

        directory = _copy_cache(warm_dir, tmp_path / "cache")
        _only_entry(directory, "memory").unlink()
        assert counters(Workbench(GOLDEN_SETTINGS, cache_dir=directory)) == cold
        assert _only_entry(directory, "memory").exists()

    def test_cache_written_under_the_v1_salt_is_ignored(
        self, tmp_path, monkeypatch,
    ):
        settings_ = ExperimentSettings(
            warmup=100, measure=400, seed=5, calibrate=False,
        )
        bench = Workbench(settings_, cache_dir=None)
        parts = (
            bench.profile("tpcw"), settings_.total, settings_.seed, "pc",
        )
        v2_key = content_key("trace", *parts)
        monkeypatch.setattr(cache_mod, "SCHEMA_SALT", "repro-artifacts-v1")
        v1_key = content_key("trace", *parts)
        ArtifactCache(tmp_path).put("trace", v1_key, ["a v1 object pickle"])
        monkeypatch.undo()

        assert v1_key != v2_key
        fresh = Workbench(settings_, cache_dir=tmp_path)
        trace = fresh.trace("tpcw")
        assert len(trace) == settings_.total
        assert all(isinstance(inst, Instruction) for inst in trace)
        assert fresh.artifacts.stats.disk_hits == 0
