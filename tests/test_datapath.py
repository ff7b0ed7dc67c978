"""Unit tests for bus coding and one-hot residue arithmetic."""

import random

import pytest

from repro.opt.datapath.bus_coding import (bus_invert, gray_code_stream,
                                           limited_weight_code,
                                           partitioned_bus_invert)
from repro.opt.datapath.residue import OneHotResidue, residue_moduli_for
from repro.sim.vectors import (counter_bus_stream, random_bus_stream,
                               stream_transitions)


class TestBusInvert:
    def test_decodable(self):
        """bus XOR invert-line recovers the original word."""
        stream = random_bus_stream(8, 200, seed=0)
        res = bus_invert(stream, 8)
        mask = 0xFF
        for original, (bus, e) in zip(stream, res.encoded):
            decoded = (~bus & mask) if e else bus
            assert decoded == original & mask

    def test_bounded_per_transfer(self):
        """No transfer flips more than ceil((n+1)/2) wires."""
        stream = random_bus_stream(8, 500, seed=1)
        res = bus_invert(stream, 8)
        prev_bus, prev_e = res.encoded[0]
        for bus, e in res.encoded[1:]:
            flips = bin(prev_bus ^ bus).count("1") + (prev_e ^ e)
            assert flips <= (8 + 1) // 2 + 1
            prev_bus, prev_e = bus, e

    def test_saving_on_random_data(self):
        """~18% expected saving for an 8-bit bus on i.i.d. data."""
        stream = random_bus_stream(8, 5000, seed=2)
        res = bus_invert(stream, 8)
        assert 0.10 < res.saving < 0.25

    def test_never_worse(self):
        for seed in range(5):
            stream = random_bus_stream(16, 500, seed=seed)
            res = bus_invert(stream, 16)
            assert res.transitions_coded <= res.transitions_uncoded

    def test_partitioned_beats_global_on_wide_bus(self):
        stream = random_bus_stream(32, 3000, seed=3)
        full = bus_invert(stream, 32)
        part = partitioned_bus_invert(stream, 32, 4)
        assert part.saving > full.saving

    def test_partition_width_check(self):
        with pytest.raises(ValueError):
            partitioned_bus_invert([1, 2, 3], 10, 3)


class TestGray:
    def test_sequential_addresses_single_flip(self):
        stream = counter_bus_stream(12, 1000)
        res = gray_code_stream(stream, 12)
        assert res.transitions_coded == 999   # exactly one per step

    def test_saving_near_half(self):
        stream = counter_bus_stream(12, 2000)
        res = gray_code_stream(stream, 12)
        assert res.saving == pytest.approx(0.5, abs=0.05)

    def test_random_data_no_help(self):
        stream = random_bus_stream(12, 2000, seed=4)
        res = gray_code_stream(stream, 12)
        assert abs(res.saving) < 0.05


class TestLimitedWeight:
    def test_skewed_alphabet_wins(self):
        """A source dominated by few symbols gets low-weight codes."""
        rng = random.Random(5)
        symbols = [0xAA, 0x55, 0xFF, 0x00]
        weights = [0.7, 0.2, 0.05, 0.05]
        stream = rng.choices(symbols, weights, k=4000)
        res = limited_weight_code(stream, 8)
        assert res.saving > 0.3

    def test_code_space_exhaustion(self):
        with pytest.raises(ValueError):
            limited_weight_code(list(range(16)), 8, code_width=2)

    def test_uncoded_transitions(self):
        assert stream_transitions([0b00, 0b11, 0b01]) == 3
        assert stream_transitions(iter([0b00, 0b11, 0b01])) == 3
        assert stream_transitions([]) == stream_transitions([5]) == 0


class TestResidue:
    def test_moduli_cover_range(self):
        m = residue_moduli_for(255)
        prod = 1
        for x in m:
            prod *= x
        assert prod > 255

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            OneHotResidue([4, 6])
        with pytest.raises(ValueError):
            OneHotResidue([3, 3])

    def test_codec_roundtrip(self):
        ohr = OneHotResidue([3, 5, 7])
        for v in range(105):
            assert ohr.decode(ohr.encode(v)) == v

    def test_arithmetic(self):
        ohr = OneHotResidue([3, 5, 7])
        rng = random.Random(6)
        for _ in range(100):
            a, b = rng.randrange(105), rng.randrange(105)
            assert ohr.decode(ohr.add(ohr.encode(a), ohr.encode(b))) == \
                (a + b) % 105
            assert ohr.decode(ohr.mul(ohr.encode(a), ohr.encode(b))) == \
                (a * b) % 105

    def test_transitions_bounded_per_step(self):
        """One-hot digits flip at most 2 wires each, data-independent."""
        ohr = OneHotResidue([3, 5, 7])
        rng = random.Random(7)
        vals = [rng.randrange(105) for _ in range(300)]
        t = ohr.stream_transitions(vals)
        assert t <= 2 * 3 * 299

    def test_wire_count(self):
        assert OneHotResidue([3, 5, 7]).total_wires() == 15
