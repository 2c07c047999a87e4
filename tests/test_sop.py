"""Sum-of-products extraction tests."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from revdec.sop import derive_sop, eval_sop


def truth(n_vars: int, fn) -> list[int]:
    return [x for x in range(1 << n_vars) if fn(x)]


def covers_exactly(cubes, n_vars: int, on_set, dc_set=()) -> bool:
    on = set(on_set)
    dc = set(dc_set)
    for x in range(1 << n_vars):
        value = eval_sop(cubes, x)
        if x in on and value != 1:
            return False
        if x not in on and x not in dc and value != 0:
            return False
    return True


def reference_sop(n_vars: int, on_set, dc_set=()):
    """Brute-force derive_sop: every one of the 3**n cubes, then the same greedy.

    A cube is prime when all its minterms are on or don't-care and no cube
    with one literal fewer is.  The cover takes the prime that covers the
    most uncovered on-set minterms, ties broken by literal count, then cube.
    """
    on = set(on_set)
    care = on | set(dc_set)
    if not on:
        return ()
    space = range(1 << n_vars)

    def minterms(mask, value):
        return {x for x in space if x & mask == value}

    def implicant(mask, value):
        return minterms(mask, value) <= care

    cubes = [(m, v) for m in space for v in space if v & ~m == 0]
    primes = [
        (m, v)
        for m, v in cubes
        if implicant(m, v)
        and not any(
            implicant(m & ~(1 << i), v & ~(1 << i))
            for i in range(n_vars)
            if m >> i & 1
        )
    ]
    coverage = {c: minterms(*c) & on for c in primes}
    chosen, uncovered = [], set(on)
    while uncovered:
        best = min(
            (c for c in primes if coverage[c] & uncovered),
            key=lambda c: (-len(coverage[c] & uncovered), bin(c[0]).count("1"), c),
        )
        chosen.append(best)
        uncovered -= coverage[best]
    return tuple(sorted(chosen))


@st.composite
def functions(draw):
    """A random (n_vars, on_set, dc_set) with n_vars <= 6.

    Each input is drawn as on, off or don't-care, so dense functions (where
    the greedy tie-breaks decide the cover) are as likely as sparse ones.
    """
    n_vars = draw(st.integers(0, 6))
    size = 1 << n_vars
    table = draw(st.lists(st.sampled_from("01-"), min_size=size, max_size=size))
    on = [x for x, t in enumerate(table) if t == "1"]
    dc = [x for x, t in enumerate(table) if t == "-"]
    return n_vars, on, dc


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(functions())
    def test_matches_brute_force(self, fn):
        n_vars, on, dc = fn
        assert derive_sop(n_vars, on, dc) == reference_sop(n_vars, on, dc)

    @settings(max_examples=50, deadline=None)
    @given(functions())
    def test_cover_is_exact(self, fn):
        n_vars, on, dc = fn
        assert covers_exactly(derive_sop(n_vars, on, dc), n_vars, on, dc)

    def test_reference_agrees_on_a_hand_example(self):
        on = truth(3, lambda x: bin(x).count("1") >= 2)
        assert reference_sop(3, on) == ((3, 3), (5, 5), (6, 6))


class TestDeriveSop:
    def test_empty_on_set(self):
        assert derive_sop(3, []) == ()

    def test_constant_true_collapses_to_one_cube(self):
        cubes = derive_sop(2, [0, 1, 2, 3])
        assert cubes == ((0, 0),)

    def test_and2_is_one_cube(self):
        cubes = derive_sop(2, [3])
        assert cubes == ((3, 3),)

    def test_xor2_cannot_merge(self):
        on = [1, 2]
        cubes = derive_sop(2, on)
        assert len(cubes) == 2
        assert covers_exactly(cubes, 2, on)

    def test_majority3(self):
        on = truth(3, lambda x: bin(x).count("1") >= 2)
        cubes = derive_sop(3, on)
        assert len(cubes) == 3  # the three pairwise ANDs
        assert covers_exactly(cubes, 3, on)

    def test_dont_cares_shrink_the_cover(self):
        # f is 1 on {1}, free on {3}: one single-literal cube suffices.
        cubes = derive_sop(2, [1], dc_set=[3])
        assert cubes == ((1, 1),)

    def test_cover_respects_care_set(self):
        on = truth(4, lambda x: x % 3 == 0)
        dc = [5, 10]
        cubes = derive_sop(4, on, dc)
        assert covers_exactly(cubes, 4, on, dc)

    def test_deterministic(self):
        on = truth(5, lambda x: (x * 7) % 3 == 1)
        assert derive_sop(5, on) == derive_sop(5, on)

    def test_one_shot_iterables(self):
        on = truth(3, lambda x: bin(x).count("1") >= 2)
        assert derive_sop(3, iter(on), iter([0, *on])) == derive_sop(3, on, [0])

    def test_input_order_does_not_matter(self):
        on = truth(4, lambda x: x in (0, 2, 5, 7, 8, 13))
        assert derive_sop(4, on) == derive_sop(4, list(reversed(on)))
