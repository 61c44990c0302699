"""Struct-of-arrays pickling for cached traces and annotated traces.

The artifact cache pickles every value it stores.  A trace pickled as
objects costs ~60 bytes per instruction, and loading it spends most of
its time in the cyclic garbage collector, which keeps re-scanning the
hundreds of thousands of young objects the unpickler creates.  The two
list subclasses here pickle as flat columns instead (stdlib ``array``,
little-endian), and decode with the collector paused:

=========  ====  =====================================================
column     type  contents
=========  ====  =====================================================
kind       u8    ``InstructionClass`` ordinal (``writer.KIND_TO_ORDINAL``)
pc         u64
address    u64
target     u64
size       u8
dest       i8    ``-1`` = no destination
srcs       u16   index into a table of the distinct ``srcs`` tuples
flags      u8    bit0 taken, bit1 lock_acquire, bit2 lock_release
access     u8    annotations only: index into ``annotate.ACCESS_INFOS``
=========  ====  =====================================================

A value outside a column's domain (a negative address, ``size > 255``)
raises ``OverflowError`` at encode time rather than wrapping.  Decoding
is strict: a column of the wrong length, a table index out of range or
an unknown kind ordinal raises :class:`pickle.UnpicklingError`, which the
artifact cache treats as a damaged entry (a miss), never as a shorter
trace.

Decoded values are plain lists of :class:`~repro.isa.Instruction` or of
``(Instruction, AccessInfo)`` pairs; every ``AccessInfo`` is the interned
singleton for its flags.
"""

from __future__ import annotations

import contextlib
import gc
import pickle
import sys
import threading
from array import array
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..isa import Instruction
from ..memory.annotate import ACCESS_INFOS, AccessInfo, access_index
from .writer import (
    _FLAG_ACQUIRE,
    _FLAG_RELEASE,
    _FLAG_TAKEN,
    KIND_TO_ORDINAL,
    ORDINAL_TO_KIND,
)

_KINDS = tuple(ORDINAL_TO_KIND[ordinal] for ordinal in range(len(ORDINAL_TO_KIND)))
_TAKEN = tuple(bool(flags & _FLAG_TAKEN) for flags in range(8))
_ACQUIRE = tuple(bool(flags & _FLAG_ACQUIRE) for flags in range(8))
_RELEASE = tuple(bool(flags & _FLAG_RELEASE) for flags in range(8))

#: Columns are stored little-endian whatever the host's byte order.
_SWAP = sys.byteorder != "little"

# ----------------------------------------------------------- GC pausing --

_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector disabled.

    Safe to nest and to enter from several threads at once: only the
    outermost exit re-enables the collector, and only if it was enabled
    when the outermost entry disabled it.  The previous state is restored
    when the body raises, too.
    """
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


# ------------------------------------------------------------- encoding --


def _pack(typecode: str, values: Iterable[int]) -> bytes:
    column = array(typecode, values)
    if _SWAP:
        column.byteswap()
    return column.tobytes()


def _encode(trace: Sequence[Instruction]) -> Tuple:
    srcs_index: dict = {}
    srcs = _pack("H", [
        srcs_index.setdefault(inst.srcs, len(srcs_index)) for inst in trace
    ])
    return (
        len(trace),
        _pack("B", [KIND_TO_ORDINAL[inst.kind] for inst in trace]),
        _pack("Q", [inst.pc for inst in trace]),
        _pack("Q", [inst.address for inst in trace]),
        _pack("Q", [inst.target for inst in trace]),
        _pack("B", [inst.size for inst in trace]),
        _pack("b", [inst.dest for inst in trace]),
        srcs,
        tuple(srcs_index),
        _pack("B", [
            (_FLAG_TAKEN if inst.taken else 0)
            | (_FLAG_ACQUIRE if inst.lock_acquire else 0)
            | (_FLAG_RELEASE if inst.lock_release else 0)
            for inst in trace
        ]),
    )


class ColumnarTrace(list):
    """A trace that pickles as columns; unpickles as a plain list."""

    __slots__ = ()

    def __reduce__(self):
        return (_decode_trace, _encode(self))


class ColumnarAnnotation(list):
    """An annotated trace that pickles as columns; unpickles as a plain
    list of ``(Instruction, AccessInfo)`` pairs."""

    __slots__ = ()

    def __reduce__(self):
        access = _pack("B", [access_index(info) for _, info in self])
        return (
            _decode_annotation,
            _encode([inst for inst, _ in self]) + (access,),
        )


# ------------------------------------------------------------- decoding --


def _unpack(name: str, typecode: str, data: bytes, count: int) -> array:
    column = array(typecode)
    if len(data) != count * column.itemsize:
        raise pickle.UnpicklingError(
            f"column {name} holds {len(data)} bytes, expected "
            f"{count} x {column.itemsize}"
        )
    column.frombytes(data)
    if _SWAP:
        column.byteswap()
    return column


def _check_index(name: str, column: array, limit: int) -> None:
    if column and max(column) >= limit:
        raise pickle.UnpicklingError(
            f"column {name} indexes {max(column)}, table holds {limit}"
        )


def _instructions(
    count: int,
    kind: bytes,
    pc: bytes,
    address: bytes,
    target: bytes,
    size: bytes,
    dest: bytes,
    srcs: bytes,
    srcs_table: tuple,
    flags: bytes,
) -> List[Instruction]:
    kinds = _unpack("kind", "B", kind, count)
    pcs = _unpack("pc", "Q", pc, count)
    addresses = _unpack("address", "Q", address, count)
    targets = _unpack("target", "Q", target, count)
    sizes = _unpack("size", "B", size, count)
    dests = _unpack("dest", "b", dest, count)
    srcs_column = _unpack("srcs", "H", srcs, count)
    flag_column = _unpack("flags", "B", flags, count)
    _check_index("kind", kinds, len(_KINDS))
    _check_index("srcs", srcs_column, len(srcs_table))
    _check_index("flags", flag_column, len(_TAKEN))
    return list(map(
        Instruction,
        map(_KINDS.__getitem__, kinds),
        pcs,
        addresses,
        sizes,
        dests,
        map(srcs_table.__getitem__, srcs_column),
        map(_TAKEN.__getitem__, flag_column),
        targets,
        map(_ACQUIRE.__getitem__, flag_column),
        map(_RELEASE.__getitem__, flag_column),
    ))


def _decode_trace(*columns) -> List[Instruction]:
    with gc_paused():
        return _instructions(*columns)


def _decode_annotation(*columns) -> List[Tuple[Instruction, AccessInfo]]:
    *inst_columns, access = columns
    with gc_paused():
        infos = _unpack("access", "B", access, inst_columns[0])
        _check_index("access", infos, len(ACCESS_INFOS))
        return list(zip(
            _instructions(*inst_columns),
            map(ACCESS_INFOS.__getitem__, infos),
        ))
