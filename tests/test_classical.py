"""Classical adder tests: oracle, three architectures, multi-digit chaining."""

from __future__ import annotations

import random

import pytest

from revdec.classical import (
    ARCHITECTURES,
    CLA_CORRECTED,
    CLA_VERBATIM,
    BcdOperands,
    BcdResult,
    InvalidBcd,
    LengthMismatch,
    _corrected_covers,
    carry_skip_add,
    cla_add,
    conventional_add,
    decimal_add,
    detection_terms,
    digit_table,
    naive_detection_terms,
    oracle,
    valid_operands,
)

ALL_OPS = tuple(valid_operands())


def z_bits(trace) -> tuple[int, ...]:
    """The binary stage sum of a conventional trace as its four bits."""
    return tuple(trace.z >> i & 1 for i in range(4))

# The five exact covers (s0..s3, cout) that _corrected_covers derives, as
# (mask, value) cubes over x = a | b << 4 | cin << 8.
CORRECTED_COVERS = (
    # s0
    (
        (273, 1), (273, 16), (273, 256), (273, 273),
    ),
    # s1
    (
        (57, 57), (63, 32), (119, 36), (119, 51), (119, 87), (119, 102), (119, 117),
        (121, 72), (147, 147), (151, 132), (153, 136), (183, 2), (191, 17), (243, 2),
        (247, 21), (297, 297), (303, 32), (312, 312), (318, 32), (359, 66), (359, 102),
        (359, 291), (359, 327), (359, 357), (361, 72), (363, 32), (367, 321), (374, 36),
        (374, 102), (374, 306), (374, 342), (374, 372), (376, 72), (387, 387),
        (391, 132), (393, 136), (402, 402), (406, 132), (408, 136), (438, 2),
        (446, 272), (483, 2), (491, 257), (498, 2), (502, 276),
    ),
    # s2
    (
        (89, 89), (95, 64), (102, 34), (104, 104), (110, 64), (119, 6), (119, 36),
        (119, 66), (119, 119), (125, 49), (134, 134), (149, 149), (153, 136), (215, 19),
        (230, 4), (329, 329), (335, 64), (344, 344), (350, 64), (359, 6), (359, 36),
        (359, 66), (359, 359), (365, 289), (374, 6), (374, 36), (374, 66), (374, 374),
        (380, 304), (389, 389), (393, 136), (404, 404), (408, 136), (455, 259),
        (470, 274),
    ),
    # s3
    (
        (119, 38), (119, 53), (119, 68), (119, 83), (119, 98), (127, 113), (153, 153),
        (159, 128), (247, 23), (249, 8), (359, 38), (359, 68), (359, 98), (359, 293),
        (359, 323), (367, 353), (374, 38), (374, 68), (374, 98), (374, 308), (374, 338),
        (382, 368), (393, 393), (399, 128), (408, 408), (414, 128), (487, 263),
        (489, 8), (502, 278), (504, 8),
    ),
    # cout
    (
        (25, 25), (40, 40), (55, 55), (70, 70), (72, 72), (85, 85), (100, 100),
        (115, 115), (130, 130), (132, 132), (136, 136), (145, 145), (265, 265),
        (280, 280), (295, 295), (310, 310), (325, 325), (340, 340), (355, 355),
        (370, 370), (385, 385), (400, 400),
    ),
)


class TestOperands:
    def test_sweep_is_complete_and_ordered(self):
        assert len(ALL_OPS) == 200
        assert ALL_OPS[0] == BcdOperands(0, 0, 0)
        assert ALL_OPS[1] == BcdOperands(0, 0, 1)
        assert ALL_OPS[2] == BcdOperands(0, 1, 0)
        assert ALL_OPS[-1] == BcdOperands(9, 9, 1)

    @pytest.mark.parametrize("a,b", [(10, 0), (0, 10), (-1, 0), (0, 16)])
    def test_rejects_non_decimal_digits(self, a, b):
        with pytest.raises(InvalidBcd):
            BcdOperands(a, b, 0)

    def test_rejects_bad_carry(self):
        with pytest.raises(ValueError):
            BcdOperands(1, 1, 2)

    def test_bit_views(self):
        op = BcdOperands(9, 6, 1)
        assert op.a_bits() == (1, 0, 0, 1)
        assert op.b_bits() == (0, 1, 1, 0)


class TestOracle:
    def test_arithmetic_identity_holds_everywhere(self):
        for op in ALL_OPS:
            result = oracle(op)
            assert 0 <= result.sum <= 9
            assert 10 * result.cout + result.sum == op.a + op.b + op.cin

    @pytest.mark.parametrize(
        "a,b,cin,s,cout",
        [(0, 0, 0, 0, 0), (9, 9, 1, 9, 1), (5, 7, 0, 2, 1), (3, 4, 0, 7, 0)],
    )
    def test_examples(self, a, b, cin, s, cout):
        assert oracle(BcdOperands(a, b, cin)) == BcdResult(s, cout)


class TestBcdResult:
    def test_sum_bits(self):
        assert BcdResult(11, 1).sum_bits() == (1, 1, 0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BcdResult(16, 0)
        with pytest.raises(ValueError):
            BcdResult(0, 2)

    def test_from_code_round_trips_every_five_bit_code(self):
        for code in range(32):
            result = BcdResult.from_code(code)
            assert result == BcdResult(code & 15, code >> 4)
            assert result.code() == code

    @pytest.mark.parametrize("code", [32, 33, 63, 1 << 40, -1, True, 3.0])
    def test_from_code_rejects_codes_outside_five_bits(self, code):
        with pytest.raises(ValueError, match="five bits"):
            BcdResult.from_code(code)

    @pytest.mark.parametrize("variant", [CLA_VERBATIM, CLA_CORRECTED])
    def test_digit_table_inverts_the_column_layout(self, variant):
        # The verbatim equations reach sums above 9, so every sum bit is used.
        # Bit op.code() of column i is bit i of the result's code.
        results = [(op, cla_add(op, variant)) for op in ALL_OPS]
        columns = [sum((r.code() >> i & 1) << op.code() for op, r in results) for i in range(5)]
        assert list(digit_table(columns)) == [r for _, r in results]


class TestConventional:
    def test_matches_oracle_everywhere(self):
        for op in ALL_OPS:
            assert conventional_add(op)[0] == oracle(op)

    @pytest.mark.parametrize(
        "a,b,cin,z,k,correct",
        [(5, 7, 0, 12, 0, 1), (9, 9, 1, 3, 1, 1), (3, 4, 0, 7, 0, 0)],
    )
    def test_traces(self, a, b, cin, z, k, correct):
        _, trace = conventional_add(BcdOperands(a, b, cin))
        assert (trace.z, trace.k, trace.correct) == (z, k, correct)

    def test_trigger_equals_decimal_carry(self):
        for op in ALL_OPS:
            _, trace = conventional_add(op)
            assert trace.correct == oracle(op).cout


class TestDetectionTerms:
    def test_exclusive_terms_never_overlap_on_reachable_states(self):
        for op in ALL_OPS:
            _, trace = conventional_add(op)
            terms = detection_terms(trace.k, z_bits(trace))
            assert sum(terms) <= 1

    def test_or_equals_xor_for_exclusive_terms(self):
        for op in ALL_OPS:
            _, trace = conventional_add(op)
            t = detection_terms(trace.k, z_bits(trace))
            assert (t[0] | t[1] | t[2]) == (t[0] ^ t[1] ^ t[2])

    def test_naive_terms_break_under_xor_at_binary_total_14(self):
        op = BcdOperands(4, 9, 1)  # 4 + 9 + 1 = 14, binary 1110
        _, trace = conventional_add(op)
        assert trace.z == 14 and trace.k == 0
        t = naive_detection_terms(trace.k, z_bits(trace))
        assert (t[0] | t[1] | t[2]) == 1
        assert (t[0] ^ t[1] ^ t[2]) == 0

    def test_naive_or_still_correct_everywhere(self):
        for op in ALL_OPS:
            _, trace = conventional_add(op)
            t = naive_detection_terms(trace.k, z_bits(trace))
            assert (t[0] | t[1] | t[2]) == oracle(op).cout


@pytest.mark.parametrize("row", ["cla_verbatim", "cla_corrected"])
class TestClaSignals:
    """Each CLA row's look-ahead signals, read from its model."""

    @pytest.mark.parametrize(
        "a,b,cin,m,n,c1",
        [(9, 9, 1, 1, 1, 1), (5, 7, 0, 1, 1, 1), (0, 0, 0, 0, 0, 0)],
    )
    def test_examples(self, row, a, b, cin, m, n, c1):
        s = ARCHITECTURES[row].model(BcdOperands(a, b, cin))[1]
        assert (s.m, s.n, s.c1) == (m, n, c1)

    def test_generate_implies_propagate(self, row):
        for op in ALL_OPS:
            s = ARCHITECTURES[row].model(op)[1]
            for g, p, h in zip(s.g, s.p, s.h):
                assert g <= p
                assert h == (p & (g ^ 1))

    def test_carry_rule_matches_oracle(self, row):
        for op in ALL_OPS:
            s = ARCHITECTURES[row].model(op)[1]
            assert (s.m | (s.n & s.c1)) == oracle(op).cout

    def test_m_implies_carry_regardless_of_low_half(self, row):
        for op in ALL_OPS:
            if ARCHITECTURES[row].model(op)[1].m:
                assert op.a + op.b >= 10


class TestClaVerbatim:
    @pytest.mark.parametrize(
        "a,b,cin,s,cout",
        [(9, 9, 1, 11, 1), (5, 7, 0, 2, 1), (0, 0, 0, 0, 0)],
    )
    def test_frozen_examples(self, a, b, cin, s, cout):
        assert cla_add(BcdOperands(a, b, cin), CLA_VERBATIM) == BcdResult(s, cout)

    def test_carry_out_is_always_correct(self):
        for op in ALL_OPS:
            assert cla_add(op, CLA_VERBATIM).cout == oracle(op).cout

    def test_per_column_agreement_counts(self):
        # Measured agreement of the printed equations per output column.
        matches = [0, 0, 0, 0]
        for op in ALL_OPS:
            got = cla_add(op, CLA_VERBATIM).sum_bits()
            want = oracle(op).sum_bits()
            for i in range(4):
                matches[i] += got[i] == want[i]
        assert matches == [200, 120, 196, 200]

    def test_whole_digit_agreement(self):
        ok = sum(cla_add(op, CLA_VERBATIM) == oracle(op) for op in ALL_OPS)
        assert ok == 116


class TestClaCorrected:
    def test_matches_oracle_everywhere(self):
        for op in ALL_OPS:
            assert cla_add(op, CLA_CORRECTED) == oracle(op)
            assert cla_add(op) == oracle(op)  # corrected is the default

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            cla_add(BcdOperands(1, 2, 0), "fixed")

    def test_derived_cover_sizes_are_stable(self):
        # Regression pin: the derivation is deterministic, so the per-column
        # cube counts must not drift.
        assert [len(c) for c in _corrected_covers()] == [4, 45, 35, 30, 22]

    def test_derived_covers_are_pinned_exactly(self):
        # Golden pin: any faster derivation must reproduce these cubes.
        assert _corrected_covers() == CORRECTED_COVERS
        assert sum(map(len, CORRECTED_COVERS)) == 136


class TestCarrySkip:
    def test_matches_oracle_everywhere(self):
        for op in ALL_OPS:
            assert carry_skip_add(op)[0] == oracle(op)

    @pytest.mark.parametrize(
        "a,b,cin,big_p,s,cout",
        [(9, 6, 1, 1, 6, 1), (9, 0, 1, 0, 0, 1), (0, 0, 1, 0, 1, 0)],
    )
    def test_examples(self, a, b, cin, big_p, s, cout):
        result, signals = carry_skip_add(BcdOperands(a, b, cin))
        assert signals.big_p == big_p
        assert result == BcdResult(s, cout)

    def test_skip_forwards_the_right_value(self):
        # Whenever every position propagates, the ripple carry must equal
        # the carry-in, so skipping cannot change the result.
        saw_skip = False
        for op in ALL_OPS:
            _, signals = carry_skip_add(op)
            if signals.big_p:
                saw_skip = True
                assert signals.c4 == op.cin
        assert saw_skip

    def test_block_propagate_holds_exactly_when_the_digits_sum_to_15(self):
        for op in ALL_OPS:
            assert carry_skip_add(op)[1].big_p == (op.a + op.b == 15)

    def test_carry_out_depends_on_the_carry_in_only_when_the_digits_sum_to_9(self):
        # So the skip path (taken only at a + b == 15) never forwards a
        # carry-in that decides the carry-out.
        for a in range(10):
            for b in range(10):
                couts = {carry_skip_add(BcdOperands(a, b, cin))[1].cout for cin in (0, 1)}
                assert (len(couts) == 2) == (a + b == 9)

    def test_agrees_with_conventional(self):
        for op in ALL_OPS:
            assert carry_skip_add(op)[0] == conventional_add(op)[0]


class TestDecimalAdd:
    def test_single_digit(self):
        assert decimal_add([9], [9], 1) == ([9], 1)

    def test_ripple_across_digits(self):
        # 999 + 1 = 1000: digits are little-endian.
        assert decimal_add([9, 9, 9], [1, 0, 0]) == ([0, 0, 0], 1)

    def test_examples_per_architecture(self):
        for arch in ("conventional", "cla_corrected", "carry_skip"):
            assert decimal_add([5, 2, 9], [5, 7, 0], 0, arch) == ([0, 0, 0], 1)

    def test_matches_integer_arithmetic(self):
        rng = random.Random(404)
        for _ in range(50):
            width = rng.randint(1, 12)
            x = [rng.randrange(10) for _ in range(width)]
            y = [rng.randrange(10) for _ in range(width)]
            cin = rng.randint(0, 1)
            for arch in ("conventional", "cla_corrected", "carry_skip"):
                digits, cout = decimal_add(x, y, cin, arch)
                got = sum(d * 10**i for i, d in enumerate(digits)) + cout * 10**width
                want = (
                    sum(d * 10**i for i, d in enumerate(x))
                    + sum(d * 10**i for i, d in enumerate(y))
                    + cin
                )
                assert got == want

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            decimal_add([1, 2], [3])

    def test_invalid_digit(self):
        with pytest.raises(InvalidBcd):
            decimal_add([12], [1])

    def test_empty_operands(self):
        with pytest.raises(ValueError):
            decimal_add([], [])

    def test_unknown_architecture(self):
        with pytest.raises(ValueError, match="architecture"):
            decimal_add([1], [2], 0, "ripple")

    @pytest.mark.parametrize("arch, why", [
        ("cla_verbatim", "architecture 'cla_verbatim' cannot chain digits: it is not exact"),
        ("ripple", "unknown architecture 'ripple'"),
    ])
    def test_a_row_that_cannot_chain_says_why(self, arch, why):
        # A registered row is not called unknown; every message lists the
        # rows that can chain.
        with pytest.raises(ValueError) as info:
            decimal_add([1], [2], 0, arch)
        assert str(info.value) == (
            f"{why}; choose from ('conventional', 'cla_corrected', 'carry_skip', "
            "'rev_conventional', 'rev_carry_skip')")
