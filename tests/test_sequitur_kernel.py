"""Differential tests: compiled SEQUITUR == the Python ``Sequitur``.

Hot-data-stream analysis builds its grammar with the C kernel in
:mod:`repro.columnar.kernel` and keeps the object-based
:class:`~repro.hds.sequitur.Sequitur` as the no-compiler fallback.  Both
must emit the same :class:`~repro.hds.streams.FlatGrammar` (rule ids,
preorder, bodies) on every input, and ``analyse_profile`` must produce
the same streams and groups whichever backend ran.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import kernel
from repro.harness.prepare import get_or_record_trace, halo_params_for, replay_profile
from repro.harness.reproduce import PAPER_BENCHMARKS
from repro.hds import FlatGrammar, HdsParams, Sequitur, analyse_profile, extract_hot_streams
from repro.hds import streams
from repro.hds.streams import intern_terminals
from repro.workloads import get_workload

pytestmark = pytest.mark.skipif(
    kernel.kernel_backend() != "c", reason="compiled kernel library unavailable"
)

#: Growing lists: x for k in 2..999 for x in range(k).  The grammar nests
#: about a thousand rules deep, past Python's default recursion limit.
DEEP = [x for k in range(2, 1000) for x in range(k)]


def python_grammar(values) -> FlatGrammar:
    """The fallback's flat grammar, built by the object-based Sequitur."""
    codes, terminals = intern_terminals(values)
    return FlatGrammar.from_sequitur(Sequitur.from_sequence(codes.tolist()), terminals)


def assert_same(ours: FlatGrammar, theirs: FlatGrammar) -> None:
    assert ours.terminals == theirs.terminals
    assert ours.rule_ids.tolist() == theirs.rule_ids.tolist()
    assert ours.offsets.tolist() == theirs.offsets.tolist()
    assert ours.body.tolist() == theirs.body.tolist()


def check(values) -> FlatGrammar:
    grammar = FlatGrammar.from_sequence(values)
    assert_same(grammar, python_grammar(values))
    assert grammar.expand() == list(values)
    return grammar


class TestClassicCases:
    def test_abcabdabcabd(self):
        grammar = check("abcabdabcabd")
        # S -> AA, A -> BcBd, B -> ab.
        assert len(grammar) == 3

    def test_run_of_identical_symbols(self):
        check([5] * 40)

    def test_empty(self):
        grammar = check([])
        assert len(grammar) == 1
        assert grammar.body.tolist() == []

    def test_single_symbol(self):
        check([7])

    def test_mixed_str_and_int_terminals(self):
        check([1, "a", "b", 2, 3, "c", "d", 4] * 8)

    def test_object_ids_with_breakers(self):
        # Profile traces mix object ids with unique negative breakers.
        check([3, 4, -1, 3, 4, -2, 3, 4, 5, -3, 3, 4, 5])


class TestProperties:
    @given(st.lists(st.integers(0, 3), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_small_alphabet(self, values):
        check(values)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.integers(2, 8))
    @settings(max_examples=100, deadline=None)
    def test_repeated_blocks(self, block, repeats):
        check(block * repeats)

    @given(st.lists(st.sampled_from([0, 1, "x", "y", -7]), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_mixed_terminals(self, values):
        check(values)


class TestWorkArrays:
    def test_undersized_work_arrays_grow_to_the_same_grammar(self, monkeypatch):
        values = [1, 2, 3, 1, 2, 3, 4, 1, 2, 3, 4] * 20
        expected = FlatGrammar.from_sequence(values)
        monkeypatch.setattr(kernel, "_sequitur_capacity", lambda n: (4, 2, 2))
        assert_same(FlatGrammar.from_sequence(values), expected)


class TestDeepGrammar:
    """Grammar walkers must not recurse once per grammar level."""

    def test_compiled_build_is_lossless_and_analysable(self):
        grammar = FlatGrammar.from_sequence(DEEP)
        assert len(grammar) > 900
        assert grammar.expand() == DEEP
        analysis = extract_hot_streams(DEEP, grammar=grammar)
        assert analysis.streams
        assert analysis.trace_length == len(DEEP)

    def test_python_walkers_agree(self):
        grammar = Sequitur.from_sequence(DEEP)
        assert grammar.expand() == DEEP
        _, terminals = intern_terminals(DEEP)
        assert terminals == tuple(range(999))  # so the codes are the values
        flat = FlatGrammar.from_sequitur(grammar, terminals)
        assert_same(FlatGrammar.from_sequence(DEEP), flat)


@pytest.fixture(scope="module")
def profiles():
    """Per workload: its profile with the HDS reference trace, built on demand."""
    built: dict = {}

    def get(name: str):
        if name not in built:
            workload = get_workload(name)
            trace = get_or_record_trace(name, workload=workload)
            built[name] = replay_profile(
                trace, workload.program, halo_params_for(workload), record_trace=True
            )
        return built[name]

    return get


@pytest.mark.parametrize("name", (*PAPER_BENCHMARKS, "mix-5x3-rr", "scn-3"))
def test_profile_traces_match_fallback(profiles, monkeypatch, name):
    """Same grammar and same HDS artifacts under the forced Python fallback."""
    profile = profiles(name)
    compiled_grammar = FlatGrammar.from_sequence(profile.trace)
    compiled = analyse_profile(profile, HdsParams())

    built = []
    from_sequence = FlatGrammar.from_sequence.__func__

    def recording(cls, values):
        built.append(from_sequence(cls, values))
        return built[-1]

    monkeypatch.setattr(streams.FlatGrammar, "from_sequence", classmethod(recording))
    monkeypatch.setattr(kernel, "_kernel", False)
    assert kernel.kernel_backend() == "python"
    fallback = analyse_profile(profile, HdsParams())

    assert len(built) == 1
    assert_same(compiled_grammar, built[0])
    assert fallback.analysis.streams == compiled.analysis.streams
    assert fallback.groups == compiled.groups
    assert fallback.group_of_site == compiled.group_of_site
    assert fallback.stream_count == compiled.stream_count
