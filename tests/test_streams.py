"""Unit tests for hot-data-stream extraction and co-allocation packing."""

import pytest

from repro.hds import (
    CoallocationSet,
    FlatGrammar,
    HotStream,
    StreamParams,
    coallocation_set,
    extract_hot_streams,
    pack_sets,
    site_assignment,
)
from repro.hds.coalloc import merge_identical_sets
from repro.hds.streams import rule_frequencies


class TestStreamParams:
    def test_defaults_match_paper(self):
        params = StreamParams()
        assert params.min_elements == 2
        assert params.max_elements == 20
        assert params.coverage == 0.90

    def test_invalid(self):
        with pytest.raises(ValueError):
            StreamParams(min_elements=1)
        with pytest.raises(ValueError):
            StreamParams(min_elements=5, max_elements=4)
        with pytest.raises(ValueError):
            StreamParams(coverage=0.0)


class TestRuleFrequencies:
    def test_start_rule_has_frequency_one(self):
        g = FlatGrammar.from_sequence("abcabdabcabd")
        freq = rule_frequencies(g)
        assert freq[0] == 1

    def test_nested_frequencies_multiply(self):
        g = FlatGrammar.from_sequence("abcabdabcabd")
        freq = rule_frequencies(g)
        ab = next(i for i in range(len(g)) if g.expand(i) == ["a", "b"])
        # 'ab' occurs four times in the input.
        assert freq[ab] == 4


class TestExtractHotStreams:
    def test_repeated_pair_found(self):
        trace = [1, 2, 99] * 10 + [50, 51]
        analysis = extract_hot_streams(trace)
        elements = {stream.elements for stream in analysis.streams}
        assert any(set(e) >= {1, 2} for e in elements)

    def test_long_rules_chopped_into_windows(self):
        block = list(range(100))
        trace = block * 6
        analysis = extract_hot_streams(trace, StreamParams(max_elements=20))
        assert analysis.streams
        assert all(len(s.elements) <= 20 for s in analysis.streams)
        # A 100-element pattern needs at least 5 windows.
        assert analysis.stream_count >= 5

    def test_unique_breaker_symbols_terminate_streams(self):
        trace = []
        breaker = -1
        for rep in range(10):
            for i in range(5):
                trace.extend([i * 2, i * 2 + 1, breaker])
                breaker -= 1
        analysis = extract_hot_streams(trace)
        for stream in analysis.streams:
            assert all(element >= 0 for element in stream.elements)
            assert len(stream.elements) == 2

    def test_coverage_controls_selection(self):
        trace = ([1, 2] * 30) + ([3, 4] * 3) + list(range(100, 130))
        high = extract_hot_streams(trace, StreamParams(coverage=0.9))
        low = extract_hot_streams(trace, StreamParams(coverage=0.3))
        assert low.stream_count <= high.stream_count

    def test_heat_property(self):
        stream = HotStream((1, 2, 3), 7)
        assert stream.heat == 21

    def test_minimality_skips_supersets_of_selected(self):
        # 'ab' is hot and inside 'abcd'; once selected, the containing rule
        # is skipped.
        trace = ("ab" * 20) + ("abcd" * 5)
        analysis = extract_hot_streams(list(trace), StreamParams(coverage=1.0))
        selected = [''.join(s.elements) for s in analysis.streams]
        assert "ab" in selected
        assert all("ab" not in s or s == "ab" for s in selected)

    def test_empty_trace(self):
        analysis = extract_hot_streams([])
        assert analysis.streams == []
        assert analysis.coverage_achieved == 0.0

    def test_mixed_type_trace_with_tied_windows(self):
        # Chopping a long rule over a trace of mixed int/str symbols yields
        # several equal-heat windows whose tuples are mutually incomparable
        # ((1, "a") vs ("b", 2) compares 1 against "b").  The candidate sort
        # used the raw window tuple as its final tie-break, which raised
        # TypeError here; ties must resolve by insertion order instead.
        block = [1, "a", "b", 2, 3, "c", "d", 4]
        trace = block * 8
        analysis = extract_hot_streams(trace, StreamParams(max_elements=2))
        assert analysis.streams
        assert all(len(stream.elements) == 2 for stream in analysis.streams)
        kinds = {
            type(element)
            for stream in analysis.streams
            for element in stream.elements
        }
        assert kinds == {int, str}

    def test_mixed_type_tie_break_is_deterministic(self):
        block = [1, "a", "b", 2, 3, "c", "d", 4]
        trace = block * 8
        first = extract_hot_streams(trace, StreamParams(max_elements=2))
        second = extract_hot_streams(trace, StreamParams(max_elements=2))
        assert [s.elements for s in first.streams] == [
            s.elements for s in second.streams
        ]


class TestCoallocationSets:
    def _sites(self):
        return {1: 0x10, 2: 0x20, 3: 0x10, 4: None}

    def _sizes(self):
        return {1: 32, 2: 16, 3: 32, 4: 64}

    def test_multi_site_set_built(self):
        stream = HotStream((1, 2), 10)
        cs = coallocation_set(stream, self._sites(), self._sizes())
        assert cs is not None
        assert cs.sites == frozenset({0x10, 0x20})
        assert cs.benefit > 0

    def test_single_site_set_rejected(self):
        stream = HotStream((1, 3), 10)  # both from site 0x10
        assert coallocation_set(stream, self._sites(), self._sizes()) is None

    def test_unattributable_object_rejects_set(self):
        stream = HotStream((1, 4), 10)
        assert coallocation_set(stream, self._sites(), self._sizes()) is None

    def test_no_benefit_when_objects_span_many_lines(self):
        sites = {1: 0x10, 2: 0x20}
        sizes = {1: 256, 2: 256}
        stream = HotStream((1, 2), 10)
        assert coallocation_set(stream, sites, sizes) is None

    def test_benefit_scales_with_frequency(self):
        hot = coallocation_set(HotStream((1, 2), 100), self._sites(), self._sizes())
        cold = coallocation_set(HotStream((1, 2), 1), self._sites(), self._sizes())
        assert hot.benefit > cold.benefit


class TestMergeAndPack:
    def _set(self, sites, benefit):
        return CoallocationSet(frozenset(sites), benefit, HotStream(tuple(sites), 1))

    def test_merge_identical_sets_sums_benefit(self):
        merged = merge_identical_sets([self._set({1, 2}, 5.0), self._set({1, 2}, 7.0)])
        assert len(merged) == 1
        assert merged[0].benefit == 12.0

    def test_merge_keeps_distinct_sets(self):
        merged = merge_identical_sets([self._set({1, 2}, 5.0), self._set({3, 4}, 7.0)])
        assert len(merged) == 2

    def test_pack_prefers_high_priority(self):
        a = self._set({1, 2}, 100.0)
        b = self._set({2, 3}, 10.0)  # conflicts with a
        chosen = pack_sets([b, a])
        assert chosen == [a]

    def test_pack_disjoint_sets_all_chosen(self):
        a = self._set({1, 2}, 100.0)
        b = self._set({3, 4}, 10.0)
        assert set(map(lambda c: c.sites, pack_sets([a, b]))) == {a.sites, b.sites}

    def test_pack_respects_max_groups(self):
        sets = [self._set({i * 2, i * 2 + 1}, 10.0) for i in range(5)]
        assert len(pack_sets(sets, max_groups=2)) == 2

    def test_priority_normalises_by_sqrt_size(self):
        small = self._set({1, 2}, 10.0)
        big = self._set({3, 4, 5, 6, 7, 8, 9, 10}, 11.0)
        assert small.priority > big.priority

    def test_site_assignment(self):
        chosen = [self._set({1, 2}, 5.0), self._set({3}, 2.0)]
        assert site_assignment(chosen) == {1: 0, 2: 0, 3: 1}
