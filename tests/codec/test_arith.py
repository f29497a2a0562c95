"""Unit and property tests for the oracle's adaptive arithmetic coder.

The per-bit coder in ``tests/codec_oracle.py`` is the specification the
compiled plane coder is checked against, so its own contract (round
trips, adaptation, halving, the probability clamp) is pinned here.
"""

import numpy as np
import pytest
from codec_oracle import (
    _MAX_TOTAL,
    ArithmeticDecoder,
    ArithmeticEncoder,
    ContextModel,
    ContextSet,
    clamp_probability0,
)
from hypothesis import given, settings, strategies as st


class TestContextModel:
    def test_initial_probability_is_half(self):
        model = ContextModel()
        assert abs(model.probability0_scaled() - 32768) <= 1

    def test_update_shifts_probability(self):
        model = ContextModel()
        for _ in range(100):
            model.update(0)
        assert model.probability0_scaled() > 60000

    def test_probability_bounds(self):
        model = ContextModel()
        for _ in range(10_000):
            model.update(1)
        p0 = model.probability0_scaled()
        assert 1 <= p0 <= 65535

    def test_counts_are_halved(self):
        model = ContextModel()
        for _ in range(10_000):
            model.update(0)
        assert model.count0 + model.count1 < 5000


class TestProbabilityClamp:
    """The centralized 1..65535 clamp shared by both coder backends."""

    def test_clamp_bounds(self):
        assert clamp_probability0(-5) == 1
        assert clamp_probability0(0) == 1
        assert clamp_probability0(1) == 1
        assert clamp_probability0(32768) == 32768
        assert clamp_probability0(65535) == 65535
        assert clamp_probability0(65536) == 65535
        assert clamp_probability0(10**9) == 65535

    def test_model_probability_goes_through_clamp(self):
        """probability0_scaled == clamp of the raw scaled ratio, always."""
        model = ContextModel()
        rng = np.random.default_rng(11)
        for _ in range(20_000):
            raw = (model.count0 << 16) // (model.count0 + model.count1)
            assert model.probability0_scaled() == clamp_probability0(raw)
            model.update(int(rng.integers(0, 2)))

    def test_clamp_is_noop_for_legal_counts(self):
        """With Laplace counts >= 1 and total < _MAX_TOTAL the raw value is
        already in 1..65535, so both backends may inline the division."""
        for count0 in (1, 2, _MAX_TOTAL // 2, _MAX_TOTAL - 2):
            for count1 in (1, 2, _MAX_TOTAL - 1 - count0):
                if count1 < 1 or count0 + count1 >= _MAX_TOTAL:
                    continue
                raw = (count0 << 16) // (count0 + count1)
                assert 1 <= raw <= 65535
                assert clamp_probability0(raw) == raw


class TestAdaptiveHalving:
    """Pins the exact count evolution around the _MAX_TOTAL boundary."""

    def test_halving_triggers_exactly_at_max_total(self):
        model = ContextModel()
        # Drive the total to _MAX_TOTAL - 1 (no halving yet: the check is
        # post-update, and totals below the cap are left untouched).
        for _ in range(_MAX_TOTAL - 3):
            model.update(0)
        assert model.count0 + model.count1 == _MAX_TOTAL - 1
        assert model.count0 == _MAX_TOTAL - 2
        assert model.count1 == 1
        # The update that reaches _MAX_TOTAL halves both counts, rounding up.
        model.update(0)
        assert model.count0 == _MAX_TOTAL // 2
        assert model.count1 == 1

    def test_halving_rounds_up_both_counts(self):
        model = ContextModel()
        model.count0 = 2047
        model.count1 = 2048
        model.update(1)  # total hits 4096 with count1 = 2049
        assert model.count0 == (2047 + 1) >> 1
        assert model.count1 == (2049 + 1) >> 1

    def test_total_never_reaches_max_after_update(self):
        model = ContextModel()
        rng = np.random.default_rng(5)
        for _ in range(3 * _MAX_TOTAL):
            model.update(int(rng.integers(0, 2)))
            assert model.count0 + model.count1 < _MAX_TOTAL
            assert model.count0 >= 1
            assert model.count1 >= 1

    def test_halving_preserves_probability_skew(self):
        """Halving keeps the learned skew (ratio) approximately intact."""
        model = ContextModel()
        for _ in range(_MAX_TOTAL):  # heavily zero-biased, multiple halvings
            model.update(0)
        assert model.probability0_scaled() > 60000


class TestRoundtrip:
    def test_empty_stream(self):
        enc = ArithmeticEncoder()
        data = enc.finish()
        assert len(data) == 4  # flush bytes only

    def test_single_bit(self):
        for bit in (0, 1):
            enc = ArithmeticEncoder()
            enc.encode(bit, "c")
            dec = ArithmeticDecoder(enc.finish())
            assert dec.decode("c") == bit

    def test_all_zeros_compresses(self):
        enc = ArithmeticEncoder()
        for _ in range(10_000):
            enc.encode(0, "c")
        data = enc.finish()
        assert len(data) < 100
        dec = ArithmeticDecoder(data)
        assert all(dec.decode("c") == 0 for _ in range(10_000))

    def test_alternating_pattern(self):
        bits = [i % 2 for i in range(500)]
        enc = ArithmeticEncoder()
        for i, bit in enumerate(bits):
            enc.encode(bit, i % 2)  # context tracks position parity
        dec = ArithmeticDecoder(enc.finish())
        assert [dec.decode(i % 2) for i in range(500)] == bits

    def test_multiple_contexts_keep_independent_stats(self):
        rng = np.random.default_rng(3)
        bits = []
        ctxs = []
        for _ in range(2000):
            ctx = int(rng.integers(0, 3))
            prob1 = [0.05, 0.5, 0.95][ctx]
            bits.append(int(rng.random() < prob1))
            ctxs.append(ctx)
        enc = ArithmeticEncoder()
        for bit, ctx in zip(bits, ctxs):
            enc.encode(bit, ctx)
        dec = ArithmeticDecoder(enc.finish())
        assert [dec.decode(c) for c in ctxs] == bits

    def test_bypass_bits_roundtrip(self):
        rng = np.random.default_rng(5)
        bits = [int(b) for b in rng.integers(0, 2, 300)]
        enc = ArithmeticEncoder()
        for bit in bits:
            enc.encode_bit_raw(bit)
        dec = ArithmeticDecoder(enc.finish())
        assert [dec.decode_bit_raw() for _ in bits] == bits

    def test_mixed_adaptive_and_bypass(self):
        rng = np.random.default_rng(6)
        ops = []
        enc = ArithmeticEncoder()
        for _ in range(1000):
            bit = int(rng.integers(0, 2))
            if rng.random() < 0.3:
                enc.encode_bit_raw(bit)
                ops.append(("raw", bit))
            else:
                ctx = int(rng.integers(0, 4))
                enc.encode(bit, ctx)
                ops.append((ctx, bit))
        dec = ArithmeticDecoder(enc.finish())
        for ctx, bit in ops:
            if ctx == "raw":
                assert dec.decode_bit_raw() == bit
            else:
                assert dec.decode(ctx) == bit


class TestCompressionEfficiency:
    @pytest.mark.parametrize("p1", [0.01, 0.1, 0.3])
    def test_near_entropy_rate(self, p1):
        """Coded size should approach the Shannon bound for skewed sources."""
        rng = np.random.default_rng(42)
        n = 20_000
        bits = (rng.random(n) < p1).astype(int)
        enc = ArithmeticEncoder()
        for bit in bits:
            enc.encode(int(bit), "c")
        coded_bits = len(enc.finish()) * 8
        entropy = -(p1 * np.log2(p1) + (1 - p1) * np.log2(1 - p1))
        assert coded_bits < n * entropy * 1.15 + 200


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 7)),
        min_size=0,
        max_size=600,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_any_sequence(pairs):
    """decode(encode(bits)) == bits for arbitrary (bit, context) sequences."""
    enc = ArithmeticEncoder()
    for bit, ctx in pairs:
        enc.encode(bit, ctx)
    dec = ArithmeticDecoder(enc.finish())
    for bit, ctx in pairs:
        assert dec.decode(ctx) == bit


def test_context_set_creates_on_demand():
    contexts = ContextSet()
    first = contexts.get("a")
    assert contexts.get("a") is first
    assert contexts.get("b") is not first
