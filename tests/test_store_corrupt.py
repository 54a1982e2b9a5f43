"""Corrupt/truncated ``.tsb`` stores and stale cache sidecars.

Every way a store file can be wrong must surface as a clean
:class:`SynopsisFormatError` (a ValueError, so existing CLI/registry
error handling catches it) -- never a raw ``struct.error``, an mmap
crash, or silently garbled tables.  And a cache sidecar that does not
match its synopsis checksum must be ignored, never served.
"""

import json
import struct

import pytest

from repro.core.build import build_treesketch
from repro.core.io import load_synopsis, save_synopsis
from repro.core.store import (
    TSB_MAGIC,
    SynopsisFormatError,
    file_checksum,
    load_cache_sidecar,
    read_tsb_info,
    save_cache_sidecar,
    sidecar_path,
    write_tsb,
)


@pytest.fixture
def tsb_path(paper_document, tmp_path):
    sketch = build_treesketch(paper_document, 120)
    path = tmp_path / "sketch.tsb"
    write_tsb(sketch, str(path))
    return path


def _corrupt(path, offset, data):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(data)] = data
    path.write_bytes(bytes(raw))


class TestCorruptStores:
    def test_bad_magic(self, tsb_path):
        _corrupt(tsb_path, 0, b"NOTASYN\x00")
        with pytest.raises(SynopsisFormatError, match="bad magic"):
            load_synopsis(str(tsb_path))

    def test_wrong_version(self, tsb_path):
        _corrupt(tsb_path, len(TSB_MAGIC), struct.pack("<I", 99))
        with pytest.raises(SynopsisFormatError, match="version 99"):
            load_synopsis(str(tsb_path))

    def test_header_checksum_mismatch(self, tsb_path):
        # Flip the root_id field without re-signing the header.
        _corrupt(tsb_path, 16, struct.pack("<q", 12345))
        with pytest.raises(SynopsisFormatError, match="header checksum"):
            load_synopsis(str(tsb_path))

    def test_payload_checksum_mismatch(self, tsb_path):
        # Flip one byte deep inside a section: the header parses fine,
        # the payload CRC catches the damage before any table is built.
        size = tsb_path.stat().st_size
        _corrupt(tsb_path, size - 3, b"\xff")
        with pytest.raises(SynopsisFormatError, match="payload checksum"):
            load_synopsis(str(tsb_path))

    def test_truncated_mid_section(self, tsb_path):
        raw = tsb_path.read_bytes()
        tsb_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SynopsisFormatError,
                           match="past end of file|truncated"):
            load_synopsis(str(tsb_path))

    def test_truncated_to_header_only(self, tsb_path):
        raw = tsb_path.read_bytes()
        tsb_path.write_bytes(raw[:64])
        with pytest.raises(SynopsisFormatError):
            load_synopsis(str(tsb_path))

    def test_truncated_below_header(self, tsb_path):
        tsb_path.write_bytes(tsb_path.read_bytes()[:17])
        with pytest.raises(SynopsisFormatError, match="too small"):
            load_synopsis(str(tsb_path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsb"
        path.write_bytes(b"")
        with pytest.raises(SynopsisFormatError, match="too small"):
            read_tsb_info(str(path))

    def test_inspect_info_rejects_corruption_too(self, tsb_path):
        _corrupt(tsb_path, 0, b"NOTASYN\x00")
        with pytest.raises(SynopsisFormatError):
            read_tsb_info(str(tsb_path))

    def test_valid_file_still_loads_after_suite_setup(self, tsb_path):
        # Guard against the fixture itself being subtly wrong.
        info = read_tsb_info(str(tsb_path))
        assert info["kind"] == "treesketch"
        loaded = load_synopsis(str(tsb_path))
        loaded.validate()


class TestCacheSidecar:
    def test_round_trip(self, tsb_path):
        checksum = file_checksum(str(tsb_path))
        save_cache_sidecar(str(tsb_path), checksum,
                           selectivities={"//a (//p)": 12.5})
        doc = load_cache_sidecar(str(tsb_path), checksum)
        assert doc is not None
        assert doc["selectivities"] == {"//a (//p)": 12.5}

    def test_float_exactness(self, tsb_path):
        # "Never wrong" requires the persisted selectivity to round-trip
        # bit-for-bit, including awkward values.
        checksum = file_checksum(str(tsb_path))
        awkward = {"q1": 0.1 + 0.2, "q2": 1e-308, "q3": 12345678.000000001}
        save_cache_sidecar(str(tsb_path), checksum, selectivities=awkward)
        doc = load_cache_sidecar(str(tsb_path), checksum)
        assert doc["selectivities"] == awkward

    def test_stale_checksum_ignored(self, tsb_path):
        checksum = file_checksum(str(tsb_path))
        save_cache_sidecar(str(tsb_path), checksum,
                           selectivities={"//a": 3.0})
        assert load_cache_sidecar(str(tsb_path), checksum + 1) is None

    def test_corrupt_sidecar_ignored(self, tsb_path):
        checksum = file_checksum(str(tsb_path))
        sidecar = sidecar_path(str(tsb_path))
        with open(sidecar, "w") as handle:
            handle.write("{not json")
        assert load_cache_sidecar(str(tsb_path), checksum) is None

    def test_absent_sidecar_is_none(self, tsb_path):
        assert load_cache_sidecar(
            str(tsb_path), file_checksum(str(tsb_path))) is None

    def test_stale_sidecar_counts_metric(self, tsb_path):
        from repro import obs

        obs.enable()
        try:
            load_cache_sidecar(str(tsb_path), 0xDEAD)  # no sidecar: absent
            save_cache_sidecar(str(tsb_path), 123, selectivities={"//a": 1.0})
            assert load_cache_sidecar(str(tsb_path), 456) is None
            counter = obs.get_metrics().counter("store.cache.ignored_stale")
            assert counter.value >= 1
        finally:
            obs.disable()


class TestRegistryWarmRestart:
    """The registry-level warm path: seed on load, persist on save."""

    def _register(self, tmp_path, paper_document, name="xm"):
        from repro.serve.registry import SketchRegistry

        sketch = build_treesketch(paper_document, 120)
        path = tmp_path / f"{name}.tsb"
        write_tsb(sketch, str(path))
        registry = SketchRegistry()
        return registry, registry.load(str(path), name=name), path

    def test_save_then_reload_warms_cache(self, tmp_path, paper_document):
        from repro.query.parser import parse_twig
        from repro.serve.registry import SketchRegistry

        registry, entry, path = self._register(tmp_path, paper_document)
        query = parse_twig("//a (//p)")
        want = entry.cache.selectivity(query)
        assert registry.save_caches() == 1
        sidecar = sidecar_path(str(path))
        with open(sidecar) as handle:
            written = json.load(handle)
        # Sidecars from `treesketch build --memo-cache`, since removed,
        # also carry a merge-score `memo` payload; it must not cost the
        # selectivities their warm start.
        with_memo = dict(written, memo={
            "options": "v1:x", "entries": [[1, 2, 0, 0, 0.5, 1.0, 2]]})

        for doc in (written, with_memo):
            with open(sidecar, "w") as handle:
                json.dump(doc, handle)
            fresh = SketchRegistry()
            warmed = fresh.load(str(path), name="xm")
            assert warmed.cache.peek_selectivity(query) == want
            # First request was a hit -- the warm-restart pin.
            assert warmed.cache.hits == 1 and warmed.cache.misses == 0

    def test_stale_sidecar_not_served(self, tmp_path, paper_document):
        from repro.query.parser import parse_twig
        from repro.serve.registry import SketchRegistry

        registry, entry, path = self._register(tmp_path, paper_document)
        query = parse_twig("//a (//p)")
        entry.cache.selectivity(query)
        registry.save_caches()
        # The synopsis changes out from under its sidecar.
        sketch2 = build_treesketch(paper_document, 200)
        write_tsb(sketch2, str(path))

        fresh = SketchRegistry()
        cold = fresh.load(str(path), name="xm")
        assert cold.cache.peek_selectivity(query) is None
        assert cold.cache.hits == 0

    def test_json_loads_have_no_sidecar_path(self, tmp_path, paper_document):
        from repro.serve.registry import SketchRegistry

        sketch = build_treesketch(paper_document, 120)
        path = tmp_path / "plain.json"
        save_synopsis(sketch, str(path))
        registry = SketchRegistry()
        entry = registry.load(str(path))
        assert entry.checksum is None
        assert registry.save_caches() == 0
