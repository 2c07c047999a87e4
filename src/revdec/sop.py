"""Two-level sum-of-products extraction from truth tables.

Given the on-set of a boolean function (and optionally a don't-care set),
:func:`derive_sop` produces a compact, deterministic list of product terms
covering exactly the on-set over the cared-about inputs.  The prime
implicants come from a ternary implicant table held as integer bitmaps: for
every mask of fixed inputs, one int whose bit ``v`` says whether the cube
``(mask, v)`` lies wholly inside the on-set plus don't-cares.  Each mask's
row is its parent row (one more input fixed) merged with itself shifted by
the freed bit, and a cube is prime when no row one literal shorter contains
it.  A cover is then picked greedily with fixed tie-breaking, so repeated
runs always return the same result.

A product term (cube) is a ``(mask, value)`` pair over the input bits:
input ``x`` satisfies the cube when ``x & mask == value``.  An empty mask is
the constant-true term.

:func:`compile_lanes` is the one cover-to-lane compiler, for the netlist
gates and the corrected carry-look-ahead adder: bitslicing, as in Biham's
"A fast new DES implementation in software" (FSE 1997).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

__all__ = ["Cube", "derive_sop", "eval_sop", "compile_lanes", "input_lanes"]

Cube = tuple[int, int]


def _prime_implicants(n_vars: int, care: int) -> list[Cube]:
    """All prime implicants of the function that is 1 on the ``care`` bitmap."""
    full = (1 << n_vars) - 1
    # zero[b]: the values 0..full with bit b clear.
    every = (1 << full + 1) - 1
    zero = {1 << p: every ^ lane for p, lane in enumerate(input_lanes(n_vars))}
    table = [0] * (full + 1)
    table[full] = care
    for mask in range(full - 1, -1, -1):
        b = ~mask & (mask + 1)  # the lowest free bit
        parent = table[mask | b]
        table[mask] = parent & (parent >> b) & zero[b]
    primes: list[Cube] = []
    for mask, bits in enumerate(table):
        fixed = mask
        while fixed and bits:
            b = fixed & -fixed
            fixed ^= b
            wider = table[mask ^ b]
            bits &= ~(wider | wider << b)
        while bits:
            low = bits & -bits
            primes.append((mask, low.bit_length() - 1))
            bits ^= low
    return primes


def derive_sop(
    n_vars: int,
    on_set: Iterable[int],
    dc_set: Iterable[int] = (),
) -> tuple[Cube, ...]:
    """Derive a sum-of-products cover for the on-set.

    ``dc_set`` inputs may fall on either side of the function; the cover is
    free to include them when that shrinks a term.  The result is
    deterministic: primes are chosen largest-coverage-first with ties broken
    by literal count and then by the cube encoding.
    """
    on = sum(1 << x for x in set(on_set))
    if not on:
        return ()
    primes = _prime_implicants(n_vars, on | sum(1 << x for x in set(dc_set)))

    # span[mask]: the minterms of the cube (mask, 0); (mask, v) covers them << v.
    span: dict[int, int] = {}
    coverage: dict[Cube, int] = {}
    for mask, value in primes:
        if mask not in span:
            span[mask] = 1
            for b in (1 << p for p in range(n_vars) if not mask >> p & 1):
                span[mask] |= span[mask] << b
        coverage[mask, value] = (span[mask] << value) & on

    chosen: list[Cube] = []
    uncovered = on
    while uncovered:
        primes = [c for c in primes if coverage[c] & uncovered]
        best = min(
            primes,
            key=lambda c: (-(coverage[c] & uncovered).bit_count(), c[0].bit_count(), c),
        )
        chosen.append(best)
        uncovered &= ~coverage[best]
    return tuple(sorted(chosen))


def eval_sop(cubes: Iterable[Cube], x: int) -> int:
    """Evaluate a sum-of-products cover at input ``x`` (1 when any cube hits)."""
    return int(any(x & mask == value for mask, value in cubes))


def compile_lanes(n_vars: int, covers: Iterable[Iterable[Cube]]) -> Callable[..., tuple]:
    """Compile covers to ``f(ones, x0, ..)``, which returns each cover's lane:
    bit ``p`` of a lane is its value under input pattern ``p``, input ``i``'s
    lane is ``x{i}`` and ``ones`` has every lane bit in use set.  A
    complement is ANDed with ``ones`` or a positive literal."""
    xs = [f"x{i}" for i in range(n_vars)]
    columns = []
    for cover in covers:
        terms = []
        for mask, value in cover:
            literals = [xs[i] for i in range(n_vars) if (mask & value) >> i & 1] or ["ones"]
            literals += [f"~{xs[i]}" for i in range(n_vars) if (mask & ~value) >> i & 1]
            terms.append(" & ".join(literals))
        columns.append(" | ".join(terms) or "0")
    namespace: dict = {}
    exec(f"def f(ones, {', '.join(xs)}):\n    return {', '.join(columns)},\n", namespace)
    return namespace["f"]


def input_lanes(n_vars: int) -> list[int]:
    """Each input's lane over all ``2**n_vars`` patterns: bit ``x`` of lane
    ``i`` is bit ``i`` of ``x``, so it repeats ``2**i`` zeros, ``2**i`` ones."""
    lanes = []
    for i in range(n_vars):
        lane = ((1 << (1 << i)) - 1) << (1 << i)
        for k in range(i + 1, n_vars):
            lane |= lane << (1 << k)
        lanes.append(lane)
    return lanes
