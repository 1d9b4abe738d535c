"""The configured functional kinds' closed-form prefixes against the forms
first written (``conftest.reference_prefix``): the same outputs, entry for
entry plain ints, whatever the word, the cap and the fuel; and each kind's
row form against its prefix read word by word."""

from __future__ import annotations

import dataclasses
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_prefix
from survtree.staged import functional_from_config

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
