"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.asm import assemble, link
from repro.asm.assembler import assemble_and_link
from repro.baselines.naive_mtb import NaiveMtbEngine
from repro.baselines.traces import TracesEngine, rewrite_for_traces
from repro.cfa.engine import EngineConfig, RapTrackEngine
from repro.cfa.streaming import StreamError, StreamingVerifier
from repro.cfa.verifier import NaiveVerifier, Verifier
from repro.core.classify import classify_module
from repro.core.pipeline import RapTrackConfig, transform
from repro.machine.mcu import MCU
from repro.trace.groundtruth import GroundTruthTracer
from repro.tz.keystore import KeyStore
from repro.workloads import load_workload
from repro.workloads.base import make_mcu


@pytest.fixture
def keystore():
    return KeyStore.provision()


def chain_authenticates(result, key: bytes) -> bool:
    """Whether a report chain passes the stream authenticator: every
    MAC under ``key``, the first report's challenge and ``H_MEM`` on
    every report, sequence numbers from 0, and a final report last."""
    first = result.reports[0] if result.reports else None
    stream = StreamingVerifier(
        SimpleNamespace(key=key,
                        expected_h_mem=first.h_mem if first else b""),
        first.challenge if first else b"")
    try:
        for report in result.reports:
            stream.feed(report)
        stream.close()
    except StreamError:
        return False
    return True


def run_source(source: str, max_instructions: int = 1_000_000) -> MCU:
    """Assemble, link, and run a bare program; returns the MCU."""
    image = assemble_and_link(source)
    mcu = MCU(image, max_instructions=max_instructions)
    mcu.run()
    return mcu


def rap_setup(source_or_workload, rap_config: RapTrackConfig = None,
              engine_config: EngineConfig = None, keystore=None):
    """Full RAP-Track pipeline over source text or a Workload.

    Returns (image, bound_map, mcu, engine, verifier, ground_truth).
    """
    keystore = keystore or KeyStore.provision()
    if isinstance(source_or_workload, str):
        module = assemble(source_or_workload)
        workload = None
    else:
        workload = source_or_workload
        module = workload.module()
    result = transform(module, rap_config)
    image = link(result.module)
    bound = result.rmap.bind(image)
    mcu = make_mcu(image, workload) if workload else MCU(image)
    tracer = GroundTruthTracer(record_all=True)
    mcu.cpu.retire_hooks.append(tracer.on_retire)
    engine = RapTrackEngine(mcu, keystore, bound, engine_config)
    verifier = Verifier(image, bound, keystore.attestation_key)
    return image, bound, mcu, engine, verifier, tracer


def traces_setup(source_or_workload, engine_config: EngineConfig = None,
                 keystore=None):
    """Full TRACES pipeline; same return shape as rap_setup."""
    keystore = keystore or KeyStore.provision()
    if isinstance(source_or_workload, str):
        module = assemble(source_or_workload)
        workload = None
    else:
        workload = source_or_workload
        module = workload.module()
    classification = classify_module(module)
    rewritten, rmap = rewrite_for_traces(module, classification)
    image = link(rewritten)
    bound = rmap.bind(image)
    mcu = make_mcu(image, workload) if workload else MCU(image)
    tracer = GroundTruthTracer(record_all=True)
    mcu.cpu.retire_hooks.append(tracer.on_retire)
    engine = TracesEngine(mcu, keystore, bound, engine_config)
    verifier = Verifier(image, bound, keystore.attestation_key)
    return image, bound, mcu, engine, verifier, tracer


def naive_setup(source_or_workload, engine_config: EngineConfig = None,
                keystore=None):
    """Naive-MTB pipeline over the unmodified binary."""
    keystore = keystore or KeyStore.provision()
    if isinstance(source_or_workload, str):
        module = assemble(source_or_workload)
        workload = None
    else:
        workload = source_or_workload
        module = workload.module()
    image = link(module)
    mcu = make_mcu(image, workload) if workload else MCU(image)
    tracer = GroundTruthTracer(record_all=True)
    mcu.cpu.retire_hooks.append(tracer.on_retire)
    engine = NaiveMtbEngine(mcu, keystore, engine_config)
    verifier = NaiveVerifier(image, keystore.attestation_key)
    return image, None, mcu, engine, verifier, tracer


def text_path(image, tracer):
    """Ground-truth executed addresses restricted to the text section."""
    lo, hi = image.section_ranges["text"]
    return [pc for pc in tracer.pcs if lo <= pc < hi]


def assert_lossless(image, engine, verifier, tracer, challenge=b"test-ch"):
    """Attest + verify + compare the reconstructed path to ground truth."""
    result = engine.attest(challenge)
    outcome = verifier.verify(result, challenge)
    assert outcome.authenticated, "report chain failed authentication"
    assert outcome.lossless, f"replay failed: {outcome.error}"
    assert not outcome.violations, outcome.violations[:3]
    assert outcome.path == text_path(image, tracer), "path != ground truth"
    return result, outcome
