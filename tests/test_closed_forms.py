"""The configured functional kinds' closed-form prefixes against the forms
first written (``conftest.reference_prefix``): the same outputs, entry for
entry plain ints, whatever the word, the cap and the fuel; each kind's
row form against its prefix read word by word; each kind's letter map
against its prefix; and the verifier's trie width read a level at a time
from the letter map against the trie of the outputs."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_prefix
from survtree.engine import diagonalize_surviving, verify, verify_record
from survtree.engine.common import PROMISES
from survtree.staged import functional_from_config, standard_library
from survtree.traces import BoundExceeded, trace_from_outputs
from survtree.trees import FiniteTree

entries = st.one_of(
    st.just({"kind": "identity"}),
    st.builds(lambda m: {"kind": "entry_mod", "modulus": m}, st.integers(1, 8)),
    st.builds(lambda c: {"kind": "constant", "value": c}, st.integers(0, 9)),
    st.just({"kind": "diverging"}),
)
bounds = st.integers(-2, 12)


@settings(max_examples=1000, deadline=None)
@given(entries, st.lists(st.integers()).map(tuple), bounds, bounds)
# residues of negative entries, and a word shorter than the cap
@example({"kind": "entry_mod", "modulus": 3}, (-1, 5, 2), 12, 12)
# entries below the modulus: the word itself
@example({"kind": "entry_mod", "modulus": 3}, (0, 1, 2), 2, 12)
@example({"kind": "constant", "value": 4}, (), 0, 5)
def test_each_kind_prefix_equals_the_reference(entry, sigma, cap, fuel):
    got = functional_from_config(entry, 0).prefix(sigma, cap, fuel)
    assert got == reference_prefix(entry)(sigma, cap, fuel)
    assert type(got) is tuple and all(type(e) is int for e in got)


@settings(max_examples=500, deadline=None)
@given(entries, st.lists(st.integers()).map(tuple), st.integers(0, 12), bounds)
def test_each_kind_eval_reads_the_reference_prefix(entry, sigma, n, fuel):
    ref = reference_prefix(entry)(sigma, n + 1, fuel)
    assert functional_from_config(entry, 0).eval(sigma, n, fuel) == (
        ref[n] if n < len(ref) else None
    )


# moduli about the size of the residue set entry_mod keeps, and far past it
large_moduli = st.sampled_from([255, 256, 257, 300, 10**12])


@settings(max_examples=500, deadline=None)
@given(large_moduli, st.data())
def test_entry_mod_past_its_residue_set_equals_the_reference(m, data):
    near = st.integers(-2, 2).map(lambda e: m + e) | st.integers(254, 258) | st.integers(-3, 3)
    sigma = tuple(data.draw(st.lists(near | st.integers(), max_size=6)))
    entry = {"kind": "entry_mod", "modulus": m}
    cap, fuel = data.draw(bounds), data.draw(bounds)
    assert functional_from_config(entry, 0).prefix(sigma, cap, fuel) == reference_prefix(entry)(
        sigma, cap, fuel
    )


def test_a_huge_modulus_loads_and_evaluates_in_bounded_memory():
    m = 10**12
    entry = {"kind": "entry_mod", "modulus": m}
    # below m, equal to it, above it and negative
    words = [(), (0, 1, 2), (255, 256, m - 1), (m,), (m + 7, 3), (2 * m + 1, -1), (-m, 5)]
    tracemalloc.start()
    try:
        fn = functional_from_config(entry, 0)
        got = [fn.prefix(w, 5, 5) for w in words]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == [reference_prefix(entry)(w, 5, 5) for w in words]


# rows of words up to the cap, past it and of mixed lengths; entries near the
# modulus and past the residue set entry_mod keeps
row_moduli = st.sampled_from([1, 2, 3, 8, 255, 256, 257, 300, 10**12])
row_entries = st.one_of(
    st.integers(0, 3), st.sampled_from([255, 256, 257, 10**12, 10**12 + 1]), st.integers()
)
row_words = st.lists(st.lists(row_entries, max_size=6).map(tuple), max_size=6)
row_kinds = st.one_of(
    st.just({"kind": "identity"}),
    st.builds(lambda m: {"kind": "entry_mod", "modulus": m}, row_moduli),
    st.builds(lambda c: {"kind": "constant", "value": c}, st.integers(0, 9)),
    st.just({"kind": "diverging"}),
)


@settings(max_examples=1000, deadline=None)
@given(row_kinds, row_words, bounds, bounds)
@example({"kind": "identity"}, [], 3, 3)
@example({"kind": "entry_mod", "modulus": 3}, [], 0, 0)
# cap 0, fuel 0 and fuel below the cap
@example({"kind": "identity"}, [(1, 2), ()], 0, 5)
@example({"kind": "entry_mod", "modulus": 3}, [(1, 2), (0,)], 5, 0)
@example({"kind": "entry_mod", "modulus": 3}, [(1, 2), (0,)], 5, 1)
@example({"kind": "constant", "value": 4}, [(1, 2), ()], 5, 2)
# own words, all of them no longer than the cap: the words themselves
@example({"kind": "entry_mod", "modulus": 3}, [(0, 1), (2,), ()], 2, 9)
# one word past the cap, of mixed lengths
@example({"kind": "identity"}, [(0, 1), (2, 0, 1), ()], 2, 9)
@example({"kind": "entry_mod", "modulus": 3}, [(0, 1), (2, 0, 1)], 2, 9)
# an entry equal to the modulus, above it, and above the capped residue set
@example({"kind": "entry_mod", "modulus": 3}, [(0, 1), (3,)], 5, 5)
@example({"kind": "entry_mod", "modulus": 3}, [(0, 1), (4, 2)], 5, 5)
@example({"kind": "entry_mod", "modulus": 300}, [(0, 1), (256, 299)], 5, 5)
@example({"kind": "entry_mod", "modulus": 300}, [(0, 1), (300, 7)], 5, 5)
# a huge modulus and negative entries
@example({"kind": "entry_mod", "modulus": 10**12}, [(5, -1), (10**12, 3)], 5, 5)
@example({"kind": "entry_mod", "modulus": 10**12}, [(-10**12,), (3,)], 5, 5)
def test_each_kind_prefix_row_equals_its_prefix_word_by_word(entry, ws, cap, fuel):
    fn = functional_from_config(entry, 0)
    assert fn.prefix.row is not None
    got = fn.prefix_row(ws, cap, fuel)
    assert type(got) is list
    assert got == [fn.prefix(w, cap, fuel) for w in ws]
    assert got == [reference_prefix(entry)(w, cap, fuel) for w in ws]


def test_a_replaced_prefix_is_read_word_by_word():
    """A prefix replaced in a copy of a functional carries no row form of
    the one it replaced, so every word of a row goes through it."""
    fn = functional_from_config({"kind": "identity"}, 0)
    calls = []

    def prefix(sigma, cap, fuel):
        calls.append(sigma)
        return fn.prefix(sigma, cap, fuel)

    spied = dataclasses.replace(fn, prefix=prefix)
    assert spied.prefix_row([(0,), (1, 2)], 3, 3) == [(0,), (1, 2)]
    assert calls == [(0,), (1, 2)]


# -- letter maps ---------------------------------------------------------------

letter_kinds = st.one_of(
    st.just({"kind": "identity"}),
    st.builds(lambda m: {"kind": "entry_mod", "modulus": m}, st.integers(1, 8) | row_moduli),
    st.builds(lambda c: {"kind": "constant", "value": c}, st.integers(0, 9)),
    st.just({"kind": "diverging"}),
)


def _image(fn, w, cap, fuel):
    """w's first min(cap, fuel) entries under fn's letter map."""
    f, n = fn.letter_map(cap, fuel)
    assert n == max(0, min(cap, fuel)) or f is None and n == 0
    return tuple(map(f, w[:n])) if n else ()


@settings(max_examples=400, deadline=None)
@given(letter_kinds, bounds, bounds, st.data())
@example({"kind": "constant", "value": 3}, 4, 9, None)
@example({"kind": "entry_mod", "modulus": 2}, 3, 3, None)
def test_each_kind_letter_map_agrees_with_its_prefix_on_long_enough_words(
    entry, cap, fuel, data
):
    """On every word of at least min(cap, fuel) entries the prefix, and the
    row form on rows of them, is the letter map's image of that many."""
    fn = functional_from_config(entry, 0)
    n = max(0, min(cap, fuel))
    long_words = st.lists(row_entries, min_size=n, max_size=n + 3).map(tuple)
    ws = [(7,) * n, tuple(range(n))] if data is None else data.draw(st.lists(long_words, max_size=5))
    images = [_image(fn, w, cap, fuel) for w in ws]
    assert [fn.prefix(w, cap, fuel) for w in ws] == images
    assert fn.prefix_row(ws, cap, fuel) == images


@settings(max_examples=500, deadline=None)
@given(letter_kinds, bounds, bounds, st.lists(row_entries, max_size=9).map(tuple))
@example({"kind": "identity"}, 5, 9, (0, 1))
@example({"kind": "constant", "value": 0}, 5, 9, (0, 0))
def test_a_letter_map_that_fixes_two_letters_maps_every_word(entry, cap, fuel, sigma):
    """A map that fixes two letters, identity's and entry_mod's past 1, is
    the prefix on words of any length; constant's fixes one letter at most,
    and a word shorter than min(cap, fuel) still gets that many outputs."""
    fn = functional_from_config(entry, 0)
    f, _ = fn.letter_map(cap, fuel)
    fixed = f is not None and sum(f(x) == x for x in range(-3, 12)) >= 2
    assert fixed == (entry["kind"] == "identity" or entry.get("modulus", 0) >= 2)
    if fixed:
        assert fn.prefix(sigma, cap, fuel) == _image(fn, sigma, cap, fuel)


def test_a_prefix_without_a_letter_map_has_none():
    fn = functional_from_config({"kind": "identity"}, 0)
    assert dataclasses.replace(fn, prefix=lambda sigma, cap, fuel: sigma).letter_map(3, 3) is None
    assert functional_from_config({"kind": "diverging"}, 0).letter_map(3, 3) == (None, 0)


# -- the verifier's level widths against the output trie ----------------------


def _trie_width(outs, depth) -> int:
    """The most children of a word of the outputs' trie."""
    rows = trace_from_outputs(outs, depth, 10**9).children
    return max((len(es) for row in rows for es in row), default=0)


@pytest.mark.parametrize("b, depth", [(2, 4), (3, 4), (4, 3), (3, 0)])
def test_the_level_width_on_a_full_tree_is_the_trie_width(b, depth):
    """For every kind, stem and fuel, the width read off the letter map is
    the widest word of the trie of the outputs on the leaves above the
    stem, so the trie fits under a promise exactly when that width does,
    and one that does not fork that many ways."""
    full = FiniteTree.full(b, depth)
    kinds = [{"kind": "identity"}, {"kind": "constant", "value": 2}, {"kind": "diverging"}]
    kinds += [{"kind": "entry_mod", "modulus": m} for m in range(1, 6)]
    for entry, stem, fuel in itertools.product(
        kinds, full.sorted_nodes(), [0, 1, 2, depth, 10**4]
    ):
        fn = functional_from_config(entry, 0)
        leaves = [w for w in full.levels()[depth] if w[:len(stem)] == stem]
        outs = fn.prefix_row(leaves, depth, fuel)
        width = verify.level_width(fn, b, stem, depth, fuel)
        assert width == _trie_width(outs, depth), (entry, stem, fuel)
        for promised in range(4):
            try:
                trace_from_outputs(outs, depth, promised)
            except BoundExceeded:
                assert width > promised
            else:
                assert width <= promised


@pytest.mark.parametrize("width", range(4))
@pytest.mark.parametrize("k, depth", [(2, 6), (2, 8), (3, 5)])
def test_the_verdict_a_level_at_a_time_is_the_tries(monkeypatch, width, k, depth):
    """Under any promised width, a surviving record verifies with the same
    defects, each naming the same word and child count, whether its tamed
    stages are checked a level at a time or through the trie."""
    payload = diagonalize_surviving(k, standard_library(), 14, depth, 10**4).to_payload()
    promise = PROMISES["surviving"]
    monkeypatch.setitem(PROMISES, "surviving", lambda p: promise(p)._replace(width=width))
    by_level = verify_record(payload)
    monkeypatch.setattr(verify, "level_width", lambda *args: None)
    assert by_level == verify_record(payload)
    assert (by_level == []) == (width >= k + 1)
