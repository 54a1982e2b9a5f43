"""The mmap-able binary synopsis store (``.tsb``) and its cache sidecar.

Every process in the serving tier used to rebuild its synopsis from JSON
on start: parse, ``float()`` every statistic, re-insert every node and
edge.  The ``.tsb`` format instead ships the flat buffers the rest of the
system already thinks in (``repro.core.kernel`` holds the build-time
partition as ``array('l')``/``array('d')``; this is the same idea applied
to the frozen synopsis): a fixed 64-byte header, a section table, and
page-aligned sections of raw little-endian ``int64``/``float64`` arrays
written ``array.tobytes()``-style.  Loading is ``mmap`` + zero-copy
``memoryview`` casts -- O(header) work plus one CRC pass at memory speed
-- and the Python-dict view of the synopsis (what ``eval_query`` and the
estimators traverse) is materialized lazily on first access, in exactly
the insertion orders the JSON loader produces, so a ``.tsb``-loaded
synopsis answers **bitwise-identically** to a JSON-loaded one
(tests/test_store_roundtrip.py holds it to that).

Because the bytes are mmap'ed read-only, N worker processes serving the
same synopsis file share one physical copy of the buffers through the
page cache -- a supervisor-forked fleet (``treesketch serve --workers
N``) pays the heap cost of the dict view only per worker *that actually
gets queries for the sketch*, and pays file-load cost essentially never.

Alongside every ``.tsb`` there may be a ``.tsb.cache`` **sidecar**: plain
JSON carrying warm-restart state -- the per-sketch ``QueryCache``
selectivity entries the serving daemon persists on graceful shutdown.
The sidecar is keyed by the synopsis checksum, so a stale sidecar is
*ignored*, never served: a mismatched key means the synopsis changed and
every cached answer is suspect.

File layout (all integers little-endian; docs/STORAGE.md for the spec)::

    [ 64-byte header  ] magic, version, kind, byte order, root/height,
                        node+edge counts, section count, payload CRC32,
                        header CRC32
    [ section table   ] 48 bytes per section: name, typecode, offset,
                        byte length, element count
    [ ...page pad...  ]
    [ section 0       ] page-aligned raw array bytes
    [ ...page pad...  ]
    [ section 1       ] ...

Corruption of any kind -- bad magic, unknown version, header or payload
CRC mismatch, a section table pointing past end-of-file (truncation) --
raises :class:`SynopsisFormatError`, never a struct error or silent
garbage; tests/test_store_corrupt.py enumerates the cases.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.stable import StableSummary
from repro.core.treesketch import TreeSketch

__all__ = [
    "SynopsisFormatError",
    "TSB_MAGIC",
    "TSB_VERSION",
    "write_tsb",
    "read_tsb",
    "read_tsb_info",
    "MappedStableSummary",
    "MappedTreeSketch",
    "file_checksum",
    "sidecar_path",
    "save_cache_sidecar",
    "load_cache_sidecar",
]


class SynopsisFormatError(ValueError):
    """A synopsis store file is corrupt, truncated, or unsupported."""


TSB_MAGIC = b"TSBSYN1\x00"
TSB_VERSION = 1
PAGE_SIZE = 4096

_KIND_STABLE = 1
_KIND_TREESKETCH = 2
_KIND_NAMES = {_KIND_STABLE: "stable", _KIND_TREESKETCH: "treesketch"}

# magic, version, kind, byteorder (1 = little), root_id, doc_height,
# num_nodes, num_edges, section_count, payload_crc32, header_crc32, pad.
_HEADER = struct.Struct("<8sIBB2xqqqqIII4x")
assert _HEADER.size == 64
_SECTION = struct.Struct("<16sc7xqqq")
assert _SECTION.size == 48

#: Section name -> array typecode.  'B' sections are raw byte blobs.
_SECTIONS = {
    "node_ids": "q",     # node ids, ascending (the JSON loader's order)
    "labels": "q",       # per node: index into the string table
    "counts": "q",       # per node: extent size
    "edge_off": "q",     # CSR row offsets over the node order (N + 1)
    "edge_dst": "q",     # per edge: target as node-order index
    "edge_w": "d",       # per edge: weight (avg child count / stable k)
    "str_off": "q",      # string table offsets into str_blob (L + 1)
    "str_blob": "B",     # UTF-8 string bytes, concatenated
    "depths": "q",       # stable only: per node class depth
    "stat_sum": "d",     # sketch only: per edge sum of child counts
    "stat_sq": "d",      # sketch only: per edge sum of squared counts
    "mem_off": "q",      # sketch, optional: members row offsets (N + 1)
    "mem_val": "q",      # sketch, optional: member class ids, sorted per row
    "val_node": "q",     # sketch, optional: node-order index per annotation
    "val_meta": "q",     # 4 ints per annotation: top_len, rest_count,
                         #   rest_distinct, null_count
    "val_key": "q",      # flattened top keys as string-table indexes
    "val_cnt": "q",      # flattened top counts
}

_MAX_SECTIONS = 64


def _align(offset: int) -> int:
    return (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


class _StringTable:
    """Deduplicating string pool; emits offsets + UTF-8 blob sections."""

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._strings: List[str] = []

    def add(self, value: str) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self._strings)
            self._index[value] = idx
            self._strings.append(value)
        return idx

    def sections(self) -> Tuple[List[int], bytes]:
        offsets = [0]
        chunks = []
        for value in self._strings:
            data = value.encode("utf-8")
            chunks.append(data)
            offsets.append(offsets[-1] + len(data))
        return offsets, b"".join(chunks)


# ----------------------------------------------------------------- writing


def write_tsb(synopsis: Union[StableSummary, TreeSketch], path: str) -> int:
    """Write ``synopsis`` to ``path`` in the binary ``.tsb`` format.

    Returns the payload CRC32 (the checksum cache sidecars key on).  The
    file is written to a temporary sibling and atomically renamed, so a
    crashed writer never leaves a half-written store behind.
    """
    if isinstance(synopsis, StableSummary):
        kind = _KIND_STABLE
    elif isinstance(synopsis, TreeSketch):
        kind = _KIND_TREESKETCH
    else:
        raise TypeError(
            f"unsupported synopsis type {type(synopsis).__name__}")

    nids = sorted(synopsis.label)
    index_of = {nid: i for i, nid in enumerate(nids)}
    strings = _StringTable()

    sections: List[Tuple[str, str, bytes, int]] = []

    def emit(name: str, values) -> None:
        typecode = _SECTIONS[name]
        if typecode == "B":
            data = bytes(values)
            sections.append((name, "B", data, len(data)))
        else:
            arr = array(typecode, values)
            sections.append((name, typecode, arr.tobytes(), len(arr)))

    emit("node_ids", nids)
    emit("labels", [strings.add(synopsis.label[nid]) for nid in nids])
    emit("counts", [synopsis.count[nid] for nid in nids])

    edge_off = [0]
    edge_dst: List[int] = []
    edge_w: List[float] = []
    edges: List[Tuple[int, int]] = []
    for nid in nids:
        for dst in sorted(synopsis.out.get(nid, {})):
            edges.append((nid, dst))
            edge_dst.append(index_of[dst])
            edge_w.append(float(synopsis.out[nid][dst]))
        edge_off.append(len(edge_dst))
    emit("edge_off", edge_off)
    emit("edge_dst", edge_dst)
    emit("edge_w", edge_w)

    if kind == _KIND_STABLE:
        if set(synopsis.depth) != set(nids):
            raise SynopsisFormatError(
                "stable summary depth table does not cover its node set; "
                "cannot store it losslessly")
        emit("depths", [synopsis.depth[nid] for nid in nids])
    else:
        stats = synopsis.stats
        if len(stats) != len(edges) or any(e not in stats for e in edges):
            raise SynopsisFormatError(
                "sketch has edges without sufficient statistics; "
                "cannot store it losslessly")
        emit("stat_sum", [stats[e][0] for e in edges])
        emit("stat_sq", [stats[e][1] for e in edges])
        if synopsis.members:
            mem_off = [0]
            mem_val: List[int] = []
            for nid in nids:
                mem_val.extend(sorted(synopsis.members.get(nid, ())))
                mem_off.append(len(mem_val))
            emit("mem_off", mem_off)
            emit("mem_val", mem_val)
        if synopsis.values:
            val_node: List[int] = []
            val_meta: List[int] = []
            val_key: List[int] = []
            val_cnt: List[int] = []
            for nid in sorted(synopsis.values):
                summary = synopsis.values[nid]
                top = sorted(summary.top.items())
                val_node.append(index_of[nid])
                val_meta.extend([len(top), summary.rest_count,
                                 summary.rest_distinct, summary.null_count])
                for key, count in top:
                    val_key.append(strings.add(key))
                    val_cnt.append(count)
            emit("val_node", val_node)
            emit("val_meta", val_meta)
            emit("val_key", val_key)
            emit("val_cnt", val_cnt)

    str_off, str_blob = strings.sections()
    emit("str_off", str_off)
    emit("str_blob", str_blob)

    # Lay the sections out page-aligned after the header + section table.
    table_end = _HEADER.size + _SECTION.size * len(sections)
    offset = _align(table_end)
    entries: List[Tuple[str, str, int, int, int]] = []
    for name, typecode, data, count in sections:
        entries.append((name, typecode, offset, len(data), count))
        offset = _align(offset + len(data))

    buf = bytearray(offset)
    pos = _HEADER.size
    for (name, typecode, sec_off, nbytes, count), (_, _, data, _) in zip(
            entries, sections):
        _SECTION.pack_into(buf, pos, name.encode("ascii").ljust(16, b"\x00"),
                           typecode.encode("ascii"), sec_off, nbytes, count)
        pos += _SECTION.size
        buf[sec_off:sec_off + nbytes] = data

    payload_crc = zlib.crc32(memoryview(buf)[_HEADER.size:]) & 0xFFFFFFFF
    byteorder = 1 if sys.byteorder == "little" else 0
    header = _HEADER.pack(
        TSB_MAGIC, TSB_VERSION, kind, byteorder,
        synopsis.root_id, synopsis.doc_height, len(nids), len(edges),
        len(sections), payload_crc, 0)
    header_crc = zlib.crc32(header) & 0xFFFFFFFF
    buf[:_HEADER.size] = _HEADER.pack(
        TSB_MAGIC, TSB_VERSION, kind, byteorder,
        synopsis.root_id, synopsis.doc_height, len(nids), len(edges),
        len(sections), payload_crc, header_crc)

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(buf)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return payload_crc


# ----------------------------------------------------------------- reading


class _TsbFile:
    """One mmap'ed ``.tsb`` file: verified header + section directory.

    All validation happens here, up front: magic, version, byte order,
    both CRCs, and every section extent against the real file size (the
    truncation check).  Past the constructor, ``view()`` hands out
    zero-copy typed ``memoryview``s into the mapping.
    """

    def __init__(self, path: str) -> None:
        import mmap

        self.path = path
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < _HEADER.size:
                raise SynopsisFormatError(
                    f"{path}: too small for a .tsb header "
                    f"({size} < {_HEADER.size} bytes)")
            self._mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._mv = memoryview(self._mm)
        try:
            self._parse(size)
        except SynopsisFormatError:
            self.close()
            raise

    def _parse(self, size: int) -> None:
        (magic, version, kind, byteorder, root_id, doc_height, num_nodes,
         num_edges, section_count, payload_crc, header_crc) = _HEADER.unpack(
            self._mv[:_HEADER.size])
        if magic != TSB_MAGIC:
            raise SynopsisFormatError(
                f"{self.path}: bad magic {bytes(magic)!r} "
                f"(expected {TSB_MAGIC!r}; not a .tsb synopsis store)")
        if version != TSB_VERSION:
            raise SynopsisFormatError(
                f"{self.path}: unsupported .tsb format version {version} "
                f"(this build reads version {TSB_VERSION})")
        expected_order = 1 if sys.byteorder == "little" else 0
        if byteorder != expected_order:
            raise SynopsisFormatError(
                f"{self.path}: byte order mismatch (file was written on a "
                f"{'little' if byteorder == 1 else 'big'}-endian host)")
        if kind not in _KIND_NAMES:
            raise SynopsisFormatError(
                f"{self.path}: unknown synopsis kind {kind}")
        zeroed = bytearray(self._mv[:_HEADER.size])
        _HEADER.pack_into(zeroed, 0, magic, version, kind, byteorder,
                          root_id, doc_height, num_nodes, num_edges,
                          section_count, payload_crc, 0)
        if zlib.crc32(bytes(zeroed)) & 0xFFFFFFFF != header_crc:
            raise SynopsisFormatError(
                f"{self.path}: header checksum mismatch (corrupt header)")
        if not 0 < section_count <= _MAX_SECTIONS:
            raise SynopsisFormatError(
                f"{self.path}: implausible section count {section_count}")
        table_end = _HEADER.size + _SECTION.size * section_count
        if size < table_end:
            raise SynopsisFormatError(
                f"{self.path}: truncated inside the section table "
                f"({size} < {table_end} bytes)")
        self.kind = kind
        self.root_id = root_id
        self.doc_height = doc_height
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.checksum = payload_crc
        self.sections: Dict[str, Tuple[str, int, int, int]] = {}
        pos = _HEADER.size
        for _ in range(section_count):
            raw_name, raw_tc, offset, nbytes, count = _SECTION.unpack(
                self._mv[pos:pos + _SECTION.size])
            pos += _SECTION.size
            name = raw_name.rstrip(b"\x00").decode("ascii", "replace")
            typecode = raw_tc.decode("ascii", "replace")
            expected_tc = _SECTIONS.get(name)
            if expected_tc is None or typecode != expected_tc:
                raise SynopsisFormatError(
                    f"{self.path}: unknown section {name!r} "
                    f"(typecode {typecode!r})")
            itemsize = 1 if typecode == "B" else array(typecode).itemsize
            if nbytes != count * itemsize or offset < table_end:
                raise SynopsisFormatError(
                    f"{self.path}: inconsistent section table entry for "
                    f"{name!r} (offset {offset}, {nbytes} bytes, "
                    f"{count} elements)")
            if offset + nbytes > size:
                raise SynopsisFormatError(
                    f"{self.path}: section {name!r} extends past end of "
                    f"file ({offset + nbytes} > {size} bytes; truncated?)")
            self.sections[name] = (typecode, offset, nbytes, count)
        if zlib.crc32(self._mv[_HEADER.size:]) & 0xFFFFFFFF != payload_crc:
            raise SynopsisFormatError(
                f"{self.path}: payload checksum mismatch (corrupt store)")

    def has(self, name: str) -> bool:
        return name in self.sections

    def view(self, name: str) -> memoryview:
        """Zero-copy typed view of one section's array."""
        typecode, offset, nbytes, _count = self.sections[name]
        view = self._mv[offset:offset + nbytes]
        return view if typecode == "B" else view.cast(typecode)

    def strings(self) -> List[str]:
        offsets = self.view("str_off")
        blob = self.view("str_blob")
        return [
            str(blob[offsets[i]:offsets[i + 1]], "utf-8")
            for i in range(len(offsets) - 1)
        ]

    def info(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "format": "tsb",
            "version": TSB_VERSION,
            "kind": _KIND_NAMES[self.kind],
            "root_id": self.root_id,
            "doc_height": self.doc_height,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "checksum": self.checksum,
            "file_bytes": len(self._mv),
            "sections": [
                {"name": name, "typecode": tc, "offset": off,
                 "bytes": nbytes, "count": count}
                for name, (tc, off, nbytes, count) in self.sections.items()
            ],
        }

    def close(self) -> None:
        self._mv.release()
        self._mm.close()


class _MappedSynopsisMixin:
    """Lazy materialization shared by the two mapped synopsis classes.

    The constructor records only O(1) header state; the dict tables the
    evaluation code traverses are built on first attribute access, in
    the same insertion orders the JSON loader produces -- which is what
    makes a mapped synopsis answer bitwise-identically to a JSON-loaded
    one.  Until then the only resident state is the mmap itself, shared
    across processes through the page cache.
    """

    _LAZY: Tuple[str, ...] = ()

    def _init_mapped(self, tsb: _TsbFile) -> None:
        # Deliberately does NOT call GraphSynopsis.__init__: assigning
        # the table attributes eagerly is exactly what laziness avoids.
        self._tsb: Optional[_TsbFile] = tsb
        self.root_id = tsb.root_id
        self.doc_height = tsb.doc_height
        self._topo = None
        self._topo_computed = False
        #: Provenance used by cache sidecars (and ``treesketch inspect``).
        self.tsb_path = tsb.path
        self.tsb_checksum = tsb.checksum

    def __getattr__(self, name: str):
        if name in type(self)._LAZY and self.__dict__.get("_tsb") is not None:
            self.materialize()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def materialized(self) -> bool:
        return self._tsb is None

    # `num_nodes`/`num_edges` come from the header so that registries and
    # `inspect` can describe a mapped sketch without materializing it.
    @property
    def num_nodes(self) -> int:
        tsb = self.__dict__.get("_tsb")
        return tsb.num_nodes if tsb is not None else len(self.label)

    @property
    def num_edges(self) -> int:
        tsb = self.__dict__.get("_tsb")
        if tsb is not None:
            return tsb.num_edges
        return sum(len(targets) for targets in self.out.values())

    def materialize(self) -> None:
        """Build the dict view of the synopsis from the mapped sections."""
        tsb = self._tsb
        if tsb is None:
            return
        # The typed views live only inside _materialize_impl, so by the
        # time close() runs no exported buffer pins the mapping.
        self._materialize_impl(tsb)
        self._tsb = None
        tsb.close()

    def _materialize_impl(self, tsb: _TsbFile) -> None:
        node_ids = tsb.view("node_ids")
        strings = tsb.strings()
        label_idx = tsb.view("labels")
        counts = tsb.view("counts")
        edge_off = tsb.view("edge_off")
        edge_dst = tsb.view("edge_dst")
        edge_w = tsb.view("edge_w")
        # Insertion orders mirror synopsis_from_dict: nodes ascending,
        # then edges in (src, dst) order.
        self.label = {nid: strings[label_idx[i]]
                      for i, nid in enumerate(node_ids)}
        self.count = {nid: counts[i] for i, nid in enumerate(node_ids)}
        out: Dict[int, Dict[int, float]] = {nid: {} for nid in node_ids}
        for i, nid in enumerate(node_ids):
            row = out[nid]
            for e in range(edge_off[i], edge_off[i + 1]):
                row[node_ids[edge_dst[e]]] = edge_w[e]
        self.out = out
        self._materialize_tables(tsb, node_ids, strings)

    def _materialize_tables(self, tsb: _TsbFile, node_ids: memoryview,
                            strings: List[str]) -> None:
        raise NotImplementedError

    def __reduce__(self):
        # Pickle/deepcopy as the equivalent plain synopsis: an mmap does
        # not survive either, and forked serving workers re-open the file
        # themselves (sharing pages through the page cache).
        from repro.core.io import synopsis_from_dict, synopsis_to_dict

        return (synopsis_from_dict, (synopsis_to_dict(self),))


class MappedStableSummary(_MappedSynopsisMixin, StableSummary):
    """A :class:`StableSummary` backed by a mapped ``.tsb`` file."""

    _LAZY = ("label", "count", "out", "depth")

    def __init__(self, tsb: _TsbFile) -> None:
        self._init_mapped(tsb)
        self.extent = None  # .tsb (like JSON) does not persist extents

    def _materialize_tables(self, tsb: _TsbFile, node_ids: memoryview,
                            strings: List[str]) -> None:
        depths = tsb.view("depths")
        self.depth = {nid: depths[i] for i, nid in enumerate(node_ids)}


class MappedTreeSketch(_MappedSynopsisMixin, TreeSketch):
    """A :class:`TreeSketch` backed by a mapped ``.tsb`` file."""

    _LAZY = ("label", "count", "out", "stats", "members", "values")

    def __init__(self, tsb: _TsbFile) -> None:
        self._init_mapped(tsb)

    def _materialize_tables(self, tsb: _TsbFile, node_ids: memoryview,
                            strings: List[str]) -> None:
        edge_off = tsb.view("edge_off")
        edge_dst = tsb.view("edge_dst")
        stat_sum = tsb.view("stat_sum")
        stat_sq = tsb.view("stat_sq")
        stats: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for i, nid in enumerate(node_ids):
            for e in range(edge_off[i], edge_off[i + 1]):
                stats[(nid, node_ids[edge_dst[e]])] = (stat_sum[e], stat_sq[e])
        self.stats = stats
        members: Dict[int, set] = {}
        if tsb.has("mem_off"):
            mem_off = tsb.view("mem_off")
            mem_val = tsb.view("mem_val")
            for i, nid in enumerate(node_ids):
                if mem_off[i] != mem_off[i + 1]:
                    members[nid] = set(mem_val[mem_off[i]:mem_off[i + 1]])
        self.members = members
        values: Dict[int, object] = {}
        if tsb.has("val_node"):
            from repro.values.summary import ValueSummary

            val_node = tsb.view("val_node")
            val_meta = tsb.view("val_meta")
            val_key = tsb.view("val_key")
            val_cnt = tsb.view("val_cnt")
            pos = 0
            for k, idx in enumerate(val_node):
                top_len, rest_count, rest_distinct, null_count = (
                    val_meta[4 * k:4 * k + 4])
                values[node_ids[idx]] = ValueSummary(
                    top={strings[val_key[pos + j]]: val_cnt[pos + j]
                         for j in range(top_len)},
                    rest_count=rest_count,
                    rest_distinct=rest_distinct,
                    null_count=null_count,
                )
                pos += top_len
        self.values = values


def read_tsb(path: str) -> Union[MappedStableSummary, MappedTreeSketch]:
    """Open a ``.tsb`` store: header-verified, lazily materialized."""
    tsb = _TsbFile(path)
    if tsb.kind == _KIND_STABLE:
        return MappedStableSummary(tsb)
    return MappedTreeSketch(tsb)


def read_tsb_info(path: str) -> Dict[str, Any]:
    """Header + section table of a ``.tsb`` file (``treesketch inspect``)."""
    tsb = _TsbFile(path)
    try:
        return tsb.info()
    finally:
        tsb.close()


# ------------------------------------------------------------- checksums


def file_checksum(path: str) -> int:
    """The sidecar key for any synopsis file.

    ``.tsb`` stores carry their payload CRC32 in the header (read in
    O(1)); for every other format this is the CRC32 of the raw file
    bytes.  Either way, a changed synopsis changes the checksum, which
    is what makes stale sidecars detectable.
    """
    with open(path, "rb") as handle:
        head = handle.read(_HEADER.size)
        if head[:len(TSB_MAGIC)] == TSB_MAGIC and len(head) == _HEADER.size:
            return _HEADER.unpack(head)[9]
        crc = zlib.crc32(head)
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return crc & 0xFFFFFFFF
            crc = zlib.crc32(chunk, crc)


# ---------------------------------------------------------- cache sidecar

_SIDECAR_VERSION = 1


def sidecar_path(path: str) -> str:
    """The cache sidecar of synopsis file ``path`` (``X.tsb.cache``)."""
    return f"{path}.cache"


def save_cache_sidecar(path: str, checksum: int,
                       selectivities: Dict[str, float]) -> str:
    """Write the cache sidecar of synopsis file ``path``.

    ``selectivities`` maps canonical query text to the estimated
    selectivity (what :meth:`repro.core.qcache.QueryCache.
    export_selectivities` returns); floats survive exactly (JSON
    round-trips Python floats bit-for-bit).  Returns the sidecar path.
    """
    target = sidecar_path(path)
    doc: Dict[str, Any] = {
        "format": _SIDECAR_VERSION,
        "checksum": int(checksum),
        "selectivities": dict(selectivities),
    }
    tmp = f"{target}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    os.replace(tmp, target)
    return target


def load_cache_sidecar(path: str, checksum: int,
                       _count_stale: bool = True) -> Optional[Dict[str, Any]]:
    """Read the sidecar of ``path`` iff it matches ``checksum``.

    Returns the sidecar document, or ``None`` when it is absent, corrupt,
    or keyed to a different synopsis checksum -- a stale sidecar is
    *ignored, never wrong* (counted as ``store.cache.ignored_stale``).
    """
    target = sidecar_path(path)
    try:
        with open(target, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        doc = None
    if (not isinstance(doc, dict)
            or doc.get("format") != _SIDECAR_VERSION
            or doc.get("checksum") != int(checksum)):
        if _count_stale:
            from repro.obs import get_metrics

            get_metrics().counter("store.cache.ignored_stale").inc()
        return None
    return doc
