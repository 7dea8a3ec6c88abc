"""Tests for the core MRS data structures: regions, segmented bitmap,
superpage index, and layout — including property-based comparison of
the bitmap against the naive interval-set oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitmap import SegmentedBitmap
from repro.core.layout import MonitorLayout
from repro.core.ranges import SuperpageIndex
from repro.core.regions import MonitoredRegion, RegionError, RegionSet
from repro.machine.memory import Memory


class TestMonitoredRegion:
    def test_basic(self):
        region = MonitoredRegion(0x1000, 16)
        assert region.end == 0x1010
        assert region.contains(0x100C)
        assert not region.contains(0x1010)
        assert list(region.words()) == [0x1000, 0x1004, 0x1008, 0x100C]

    @pytest.mark.parametrize("start,size", [
        (0x1001, 4), (0x1002, 4), (0x1000, 0), (0x1000, 6), (0x1000, -4)])
    def test_alignment_validation(self, start, size):
        with pytest.raises(RegionError):
            MonitoredRegion(start, size)

    def test_overlap(self):
        a = MonitoredRegion(0x1000, 16)
        assert a.overlaps(MonitoredRegion(0x100C, 8))
        assert not a.overlaps(MonitoredRegion(0x1010, 8))
        assert not a.overlaps(MonitoredRegion(0x0FF0, 16))

    def test_equality_and_hash(self):
        assert MonitoredRegion(0x10, 4) == MonitoredRegion(0x10, 4)
        assert len({MonitoredRegion(0x10, 4),
                    MonitoredRegion(0x10, 4)}) == 1


class TestRegionSet:
    def test_add_remove_find(self):
        regions = RegionSet()
        region = MonitoredRegion(0x2000, 8)
        regions.add(region)
        assert regions.hit(0x2004)
        assert regions.find(0x2004).start == 0x2000
        regions.remove(region)
        assert not regions.hit(0x2004)

    def test_overlap_rejected(self):
        regions = RegionSet()
        regions.add(MonitoredRegion(0x2000, 8))
        with pytest.raises(RegionError):
            regions.add(MonitoredRegion(0x2004, 8))

    def test_remove_unknown_rejected(self):
        regions = RegionSet()
        with pytest.raises(RegionError):
            regions.remove(MonitoredRegion(0x2000, 8))

    def test_hit_spans_access_size(self):
        regions = RegionSet()
        regions.add(MonitoredRegion(0x2004, 4))
        assert regions.hit(0x2000, 8)       # 8-byte access reaches in
        assert not regions.hit(0x2000, 4)

    def test_intersects_range(self):
        regions = RegionSet()
        regions.add(MonitoredRegion(0x2000, 8))
        assert regions.intersects_range(0x1000, 0x2000)
        assert regions.intersects_range(0x2007, 0x3000)
        assert not regions.intersects_range(0x2008, 0x3000)


class TestLayout:
    def test_defaults_match_paper(self):
        layout = MonitorLayout()
        assert layout.segment_words == 128
        assert layout.segment_bytes == 512
        assert layout.seg_shift == 9
        assert layout.bitmap_words == 4

    def test_segment_arithmetic(self):
        layout = MonitorLayout(128)
        assert layout.segment_of(0) == 0
        assert layout.segment_of(511) == 0
        assert layout.segment_of(512) == 1
        assert layout.word_index_in_segment(512 + 4 * 5) == 5

    def test_superpage_arithmetic(self):
        layout = MonitorLayout()
        assert layout.superpage_of(0) == 0
        assert layout.superpage_of((1 << 25) - 1) == 0
        assert layout.superpage_of(1 << 25) == 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            MonitorLayout(100)
        with pytest.raises(ValueError):
            MonitorLayout(16)

    def test_table_scales_inversely_with_segment_size(self):
        small = MonitorLayout(128)
        large = MonitorLayout(1024)
        assert small.table_bytes() == 8 * large.table_bytes()


class TestSegmentedBitmap:
    def setup_method(self):
        self.memory = Memory()
        self.layout = MonitorLayout()
        self.bitmap = SegmentedBitmap(self.memory, self.layout)

    def test_set_and_query(self):
        region = MonitoredRegion(0x1000, 12)
        self.bitmap.set_region(region)
        assert self.bitmap.is_monitored(0x1000)
        assert self.bitmap.is_monitored(0x1008)
        assert not self.bitmap.is_monitored(0x100C)

    def test_null_pointer_means_unmonitored(self):
        entry = self.layout.seg_table_entry(self.layout.segment_of(0x5000))
        assert self.memory.read_word(entry) == 0
        self.bitmap.set_region(MonitoredRegion(0x5000, 4))
        assert self.memory.read_word(entry) != 0
        self.bitmap.clear_region(MonitoredRegion(0x5000, 4))
        assert self.memory.read_word(entry) == 0

    def test_hit_covers_byte_and_doubleword(self):
        self.bitmap.set_region(MonitoredRegion(0x1004, 4))
        assert self.bitmap.hit(0x1005, 1)      # byte inside the word
        assert self.bitmap.hit(0x1000, 8)      # doubleword overlaps
        assert not self.bitmap.hit(0x1000, 4)

    def test_region_spanning_segments(self):
        start = self.layout.segment_bytes - 8
        region = MonitoredRegion(start, 16)   # crosses segment 0 -> 1
        touched = self.bitmap.set_region(region)
        assert touched == {0, 1}
        assert self.bitmap.is_monitored(start)
        assert self.bitmap.is_monitored(start + 12)

    def test_overlapping_words_refcounted(self):
        # two adjacent regions in one segment; deleting one keeps the
        # other's bits
        self.bitmap.set_region(MonitoredRegion(0x1000, 4))
        self.bitmap.set_region(MonitoredRegion(0x1004, 4))
        self.bitmap.clear_region(MonitoredRegion(0x1000, 4))
        assert not self.bitmap.is_monitored(0x1000)
        assert self.bitmap.is_monitored(0x1004)

    def test_space_accounting(self):
        assert self.bitmap.bitmap_bytes_allocated() == 0
        self.bitmap.set_region(MonitoredRegion(0x1000, 4))
        assert self.bitmap.bitmap_bytes_allocated() == \
            4 * self.layout.bitmap_words


# -- property-based: bitmap == interval oracle ------------------------------

_region_spec = st.tuples(
    st.integers(min_value=0, max_value=4000).map(lambda w: 0x10000 + 4 * w),
    st.integers(min_value=1, max_value=32).map(lambda w: 4 * w))


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(_region_spec, min_size=1, max_size=12),
       probes=st.lists(st.integers(min_value=0, max_value=4200),
                       min_size=10, max_size=40),
       deletions=st.lists(st.booleans(), min_size=12, max_size=12))
def test_bitmap_matches_interval_oracle(specs, probes, deletions):
    """Random create/delete sequences: the segmented bitmap answers
    membership exactly like the naive region set, and each touched
    segment's table entry in memory is null exactly when no region
    lies in that segment (the segment table is the only copy of the
    unmonitored flag)."""
    memory = Memory()
    layout = MonitorLayout()
    bitmap = SegmentedBitmap(memory, layout)
    oracle = RegionSet()
    created = []
    touched = set()
    for start, size in specs:
        region = MonitoredRegion(start, size)
        try:
            oracle.add(region)
        except RegionError:
            continue  # overlapping spec: skip (regions must not overlap)
        touched |= bitmap.set_region(region)
        created.append(region)
    for region, delete in zip(list(created), deletions):
        if delete:
            oracle.remove(region)
            bitmap.clear_region(region)
    for probe in probes:
        addr = 0x10000 + 4 * probe
        assert bitmap.is_monitored(addr) == oracle.hit(addr, 1), \
            hex(addr)
    for segment in touched:
        lo = segment * layout.segment_bytes
        pointer = memory.read_word(layout.seg_table_entry(segment))
        if oracle.intersects_range(lo, lo + layout.segment_bytes - 1):
            assert pointer == bitmap._segments[segment], segment
        else:
            assert pointer == 0, segment


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(_region_spec, min_size=1, max_size=8),
       lo_word=st.integers(min_value=0, max_value=4200),
       span=st.integers(min_value=0, max_value=600),
       deletions=st.lists(st.booleans(), min_size=8, max_size=8),
       straddle=st.booleans())
def test_superpage_index_is_conservative(specs, lo_word, span, deletions,
                                         straddle):
    """The superpage range check never misses: if any region intersects
    [lo, hi], range_may_hit must be True (it may be conservatively True
    otherwise).  After random creates and deletes, each superpage's
    count in memory equals the number of regions touching that
    superpage; with *straddle*, addresses fold onto the 512 bytes
    around a superpage boundary, so regions often cross it."""
    def place(addr):
        if straddle:
            return (1 << 25) - 0x100 + (addr - 0x10000) % 0x200
        return addr
    memory = Memory()
    layout = MonitorLayout()
    index = SuperpageIndex(memory, layout)
    oracle = RegionSet()
    created = []
    for start, size in specs:
        region = MonitoredRegion(place(start), size)
        try:
            oracle.add(region)
        except RegionError:
            continue
        index.add_region(region)
        created.append(region)
    for region, delete in zip(list(created), deletions):
        if delete:
            oracle.remove(region)
            index.remove_region(region)
    lo = place(0x10000 + 4 * lo_word)
    hi = lo + 4 * span
    if oracle.intersects_range(lo, hi):
        assert index.range_may_hit(lo, hi)

    def pages(region):
        return range(layout.superpage_of(region.start),
                     layout.superpage_of(region.end - 1) + 1)
    for page in {page for region in created for page in pages(region)}:
        expected = sum(page in pages(region) for region in oracle)
        assert memory.read_word(layout.superpage_entry(page)) == \
            expected, page


class TestSuperpageIndex:
    def test_counts_in_memory(self):
        memory = Memory()
        layout = MonitorLayout()
        index = SuperpageIndex(memory, layout)
        region = MonitoredRegion(0x1000, 8)
        index.add_region(region)
        entry = layout.superpage_entry(layout.superpage_of(0x1000))
        assert memory.read_word(entry) == 1
        index.remove_region(region)
        assert memory.read_word(entry) == 0

    def test_region_spanning_superpages(self):
        memory = Memory()
        layout = MonitorLayout()
        index = SuperpageIndex(memory, layout)
        start = (1 << 25) - 8
        region = MonitoredRegion(start, 16)
        index.add_region(region)
        assert index.range_may_hit(start, start)
        assert index.range_may_hit(1 << 25, (1 << 25) + 4)

    def test_underflow_detected(self):
        memory = Memory()
        index = SuperpageIndex(memory, MonitorLayout())
        with pytest.raises(ValueError):
            index.remove_region(MonitoredRegion(0x1000, 4))
