"""The configured functional kinds' closed-form prefixes against the forms
first written (``conftest.reference_prefix``): the same outputs, entry for
entry plain ints, whatever the word, the cap and the fuel."""

from __future__ import annotations

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
