"""Partial reports under the MTB_FLOW watermark (paper section IV-E)."""

import pytest

from repro.cfa.engine import EngineConfig
from repro.trace.mtb import PACKET_BYTES
from conftest import (
    assert_lossless,
    naive_setup,
    rap_setup,
    text_path,
    traces_setup,
)

MANY_EVENTS = """
.entry main
main:
    mov r4, #0
    mov r5, #40
top:
    add r4, r4, #1
    cmp r4, r5
    blt top
    bkpt
"""


class TestWatermarkPartials:
    def test_partials_emitted_at_watermark(self, keystore):
        config = EngineConfig(watermark=8 * PACKET_BYTES)
        _, _, _, engine, _, _ = rap_setup(MANY_EVENTS, engine_config=config,
                                          keystore=keystore)
        result = engine.attest(b"x")
        # 39 latch-taken records at 8 per partial
        assert result.partial_report_count == 4
        assert len(result.reports) == 5
        assert result.final_report.final

    def test_sequence_numbers_monotonic(self, keystore):
        config = EngineConfig(watermark=8 * PACKET_BYTES)
        _, _, _, engine, _, _ = rap_setup(MANY_EVENTS, engine_config=config,
                                          keystore=keystore)
        result = engine.attest(b"x")
        assert [r.seq for r in result.reports] == list(range(5))
        assert [r.final for r in result.reports] == [False] * 4 + [True]

    def test_chain_verifies(self, keystore):
        config = EngineConfig(watermark=8 * PACKET_BYTES)
        _, _, _, engine, verifier, _ = rap_setup(
            MANY_EVENTS, engine_config=config, keystore=keystore)
        result = engine.attest(b"x")
        assert verifier.verify(result, b"x").authenticated

    def test_lossless_across_partials(self, keystore):
        config = EngineConfig(watermark=8 * PACKET_BYTES)
        image, _, _, engine, verifier, tracer = rap_setup(
            MANY_EVENTS, engine_config=config, keystore=keystore)
        assert_lossless(image, engine, verifier, tracer)

    def test_no_packets_lost_to_wraparound(self, keystore):
        # watermark == buffer size: drains exactly at the wrap point
        config = EngineConfig(mtb_buffer_size=4 * PACKET_BYTES)
        image, _, _, engine, verifier, tracer = rap_setup(
            MANY_EVENTS, engine_config=config, keystore=keystore)
        result, _ = assert_lossless(image, engine, verifier, tracer)
        assert len(result.cflog) == 39

    def test_total_records_independent_of_watermark(self, keystore):
        logs = []
        for watermark in (8 * PACKET_BYTES, 16 * PACKET_BYTES, None):
            config = EngineConfig(watermark=watermark)
            _, _, _, engine, _, _ = rap_setup(
                MANY_EVENTS, engine_config=config, keystore=keystore)
            logs.append(len(engine.attest(b"x").cflog))
        assert len(set(logs)) == 1

    def test_smaller_watermark_more_partials(self, keystore):
        counts = []
        for watermark in (4 * PACKET_BYTES, 16 * PACKET_BYTES):
            config = EngineConfig(watermark=watermark)
            _, _, _, engine, _, _ = rap_setup(
                MANY_EVENTS, engine_config=config, keystore=keystore)
            counts.append(engine.attest(b"x").partial_report_count)
        assert counts[0] > counts[1]

    def test_report_pause_cycles_scale_with_partials(self, keystore):
        config = EngineConfig(watermark=4 * PACKET_BYTES)
        _, _, _, engine, _, _ = rap_setup(MANY_EVENTS, engine_config=config,
                                          keystore=keystore)
        result = engine.attest(b"x")
        assert result.report_cycles == (
            (result.partial_report_count + 1) * config.sign_cycles)


class TestNaivePartials:
    def test_naive_needs_many_more_partials(self, keystore):
        """Section V-B: under the 4 KB MTB the naive approach pauses
        frequently; RAP-Track fits in a single report."""
        config = EngineConfig(watermark=16 * PACKET_BYTES)
        _, _, _, rap_engine, _, _ = rap_setup(
            MANY_EVENTS, engine_config=config, keystore=keystore)
        _, _, _, naive_engine, _, _ = naive_setup(
            MANY_EVENTS, engine_config=config, keystore=keystore)
        rap = rap_engine.attest(b"x")
        naive = naive_engine.attest(b"x")
        assert naive.partial_report_count >= rap.partial_report_count

    def test_naive_lossless_across_partials(self, keystore):
        config = EngineConfig(watermark=8 * PACKET_BYTES)
        image, _, _, engine, verifier, tracer = naive_setup(
            MANY_EVENTS, engine_config=config, keystore=keystore)
        result = engine.attest(b"x")
        outcome = verifier.verify(result, b"x")
        assert outcome.ok
        assert outcome.path == text_path(image, tracer)
        assert result.partial_report_count > 0


class TestTracesPartials:
    def test_traces_partials_and_losslessness(self, keystore):
        config = EngineConfig(watermark=32)
        image, _, _, engine, verifier, tracer = traces_setup(
            MANY_EVENTS, engine_config=config, keystore=keystore)
        result = engine.attest(b"x")
        assert result.partial_report_count > 0
        outcome = verifier.verify(result, b"x")
        assert outcome.ok
        assert outcome.path == text_path(image, tracer)
