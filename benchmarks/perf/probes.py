"""Replay probes: module-level functions timed alone on captured inputs.

Inputs are committed blocks the traced run captured from
``gateway.block_events()`` at fixed wave numbers, so two runs replay the
same shapes and their *counts* repeat exactly.  Each probe names its
target as an import path and resolves it when it starts; see
:mod:`tracing` for what happens when the name is gone.
"""

from __future__ import annotations

from typing import Any, Optional

from tracing import Tracer, guarded, median_seconds, resolve

Metrics = dict[str, Optional[float]]


def _crdt_values(blocks: list, from_bytes) -> tuple[list, list]:
    """Decoded CRDT write values of the captured blocks: (json, envelopes)."""

    documents, envelopes = [], []
    for committed in blocks:
        for tx in committed.block.transactions:
            for write in tx.rwset.writes:
                if not write.is_crdt:
                    continue
                value = from_bytes(write.value)
                (envelopes if "crdt" in value and "state" in value else documents).append(
                    (write.key, value)
                )
    return documents, envelopes


def merge_layers(tracer: Tracer, blocks: list, state: Any, crdt_config: Any) -> Metrics:
    """``core.*`` and ``crdt.*``: the block merge and the CRDT engines."""

    out: Metrics = {}
    tx_count = sum(len(committed.block) for committed in blocks)

    def block_merge() -> Optional[float]:
        validate = resolve(
            tracer, "core.validate_merge_block_ms_per_block",
            "repro.core.blockmerge:validate_merge_block",
        )
        if validate is None:
            return None
        work = {"merge_ops": 0, "merge_scan_steps": 0, "hits": 0, "misses": 0}

        def run() -> None:
            for key in work:
                work[key] = 0
            for committed in blocks:
                block = committed.block
                plan = validate(block, [None] * len(block), state, crdt_config)
                work["merge_ops"] += plan.work.get("merge_ops", 0)
                work["merge_scan_steps"] += plan.work.get("merge_scan_steps", 0)
                work["hits"] += plan.work.get("decode_cache_hits", 0)
                work["misses"] += plan.work.get("decode_cache_misses", 0)

        seconds = median_seconds(run)
        out["core.merge_ops_per_tx"] = work["merge_ops"] / tx_count
        out["core.merge_scan_steps_per_tx"] = work["merge_scan_steps"] / tx_count
        decodes = work["hits"] + work["misses"]
        out["core.decode_cache_hit_ratio"] = work["hits"] / decodes if decodes else 0.0
        return 1000.0 * seconds / len(blocks)

    out["core.validate_merge_block_ms_per_block"] = guarded(
        tracer, "core.validate_merge_block_ms_per_block", block_merge
    )

    from_bytes = resolve(tracer, "crdt.*", "repro.common.serialization:from_bytes")
    if from_bytes is None:
        return out
    documents, envelopes = _crdt_values(blocks, from_bytes)

    def json_merge() -> Optional[float]:
        init = resolve(tracer, "crdt.json.merge_us_per_value", "repro.core.jsonmerge:init_empty_crdt")
        merge = resolve(tracer, "crdt.json.merge_us_per_value", "repro.core.jsonmerge:merge_crdt")
        if init is None or merge is None or not documents:
            return None

        def run() -> dict:
            merged: dict = {}
            for key, value in documents:
                if key not in merged:
                    merged[key] = init(key, value, "probe")
                merge(merged[key], value, crdt_config)
            return merged

        seconds = median_seconds(run)
        merged = run()
        # to_committed_bytes is resolved on the instances the merge built.
        convert = [getattr(doc, "to_committed_bytes", None) for doc in merged.values()]
        if all(callable(fn) for fn in convert):
            out["crdt.json.to_committed_bytes_us_per_doc"] = (
                1e6 * median_seconds(lambda: [fn() for fn in convert]) / len(convert)
            )
        else:
            tracer.missing["crdt.json.to_committed_bytes_us_per_doc"] = (
                "MergedKey.to_committed_bytes is gone"
            )
        return 1e6 * seconds / len(documents)

    out["crdt.json.merge_us_per_value"] = guarded(
        tracer, "crdt.json.merge_us_per_value", json_merge
    )

    def state_merge() -> Optional[float]:
        decode = resolve(
            tracer, "crdt.state.merge_us_per_envelope",
            "repro.crdt.registry:crdt_from_dict_envelope",
        )
        if decode is None or not envelopes:
            return None

        def run() -> None:
            merged: dict = {}
            for key, value in envelopes:
                incoming = decode(value)
                current = merged.get(key)
                merged[key] = incoming if current is None else current.merge(incoming)

        return 1e6 * median_seconds(run) / len(envelopes)

    out["crdt.state.merge_us_per_envelope"] = guarded(
        tracer, "crdt.state.merge_us_per_envelope", state_merge
    )

    crdt_bytes = [
        len(write.value)
        for committed in blocks
        for tx in committed.block.transactions
        for write in tx.rwset.writes
        if write.is_crdt
    ]
    out["crdt.envelope_bytes_per_tx"] = sum(crdt_bytes) / tx_count
    committed_sizes = [
        len(value)
        for committed in blocks
        for value in {
            write.key: write.value
            for _, write in committed.writes_applied()
            if write.is_crdt
        }.values()
    ]
    out["crdt.committed_bytes_per_key"] = (
        sum(committed_sizes) / len(committed_sizes) if committed_sizes else 0.0
    )
    return out


def serialization_layer(tracer: Tracer, blocks: list) -> Metrics:
    """``common.serialization``: canonical JSON both ways on written values."""

    out: Metrics = {}
    raws = [
        write.value
        for committed in blocks
        for tx in committed.block.transactions
        for write in tx.rwset.writes
        if write.value
    ]
    megabytes = sum(len(raw) for raw in raws) / 1e6

    def run() -> None:
        from_bytes = resolve(
            tracer, "common.serialization.from_bytes_mb_per_s",
            "repro.common.serialization:from_bytes",
        )
        to_bytes = resolve(
            tracer, "common.serialization.to_bytes_mb_per_s",
            "repro.common.serialization:to_bytes",
        )
        if from_bytes is None or not raws:
            return
        out["common.serialization.from_bytes_mb_per_s"] = megabytes / median_seconds(
            lambda: [from_bytes(raw) for raw in raws]
        )
        if to_bytes is not None:
            values = [from_bytes(raw) for raw in raws]
            out["common.serialization.to_bytes_mb_per_s"] = megabytes / median_seconds(
                lambda: [to_bytes(value) for value in values]
            )

    guarded(tracer, "common.serialization", run)
    return out


def net_layers(tracer: Tracer, blocks: list) -> Metrics:
    """``net.codec`` and ``net.wire``: framing and per-structure coding."""

    out: Metrics = {}
    envelopes = [tx for committed in blocks for tx in committed.block.transactions]

    def wire() -> None:
        enc_envelope = resolve(tracer, "net.wire.enc_envelope_us", "repro.net.wire:enc_envelope")
        dec_envelope = resolve(tracer, "net.wire.dec_envelope_us", "repro.net.wire:dec_envelope")
        enc_block = resolve(
            tracer, "net.wire.enc_committed_block_us_per_tx",
            "repro.net.wire:enc_committed_block",
        )
        dec_block = resolve(
            tracer, "net.wire.dec_committed_block_us_per_tx",
            "repro.net.wire:dec_committed_block",
        )
        messages = []
        if enc_envelope is not None:
            out["net.wire.enc_envelope_us"] = (
                1e6 * median_seconds(lambda: [enc_envelope(tx) for tx in envelopes])
                / len(envelopes)
            )
            encoded = [enc_envelope(tx) for tx in envelopes]
            messages += [{"type": "broadcast", "envelope": data} for data in encoded]
            if dec_envelope is not None:
                out["net.wire.dec_envelope_us"] = (
                    1e6 * median_seconds(lambda: [dec_envelope(data) for data in encoded])
                    / len(envelopes)
                )
        if enc_block is not None:
            out["net.wire.enc_committed_block_us_per_tx"] = (
                1e6 * median_seconds(lambda: [enc_block(c) for c in blocks]) / len(envelopes)
            )
            encoded_blocks = [enc_block(c) for c in blocks]
            messages += [{"type": "block", "committed": data} for data in encoded_blocks]
            if dec_block is not None:
                out["net.wire.dec_committed_block_us_per_tx"] = (
                    1e6 * median_seconds(lambda: [dec_block(d) for d in encoded_blocks])
                    / len(envelopes)
                )

        encode_message = resolve(
            tracer, "net.codec.encode_mb_per_s", "repro.net.codec:encode_message"
        )
        decoder_cls = resolve(tracer, "net.codec.decode_mb_per_s", "repro.net.codec:FrameDecoder")
        from_bytes = resolve(
            tracer, "net.codec.decode_mb_per_s", "repro.common.serialization:from_bytes"
        )
        if encode_message is None or not messages:
            return
        frames = [encode_message(message) for message in messages]
        megabytes = sum(len(frame) for frame in frames) / 1e6
        out["net.codec.encode_mb_per_s"] = megabytes / median_seconds(
            lambda: [encode_message(message) for message in messages]
        )
        if decoder_cls is not None and from_bytes is not None:

            def decode() -> None:
                decoder = decoder_cls()
                for frame in frames:
                    for payload in decoder.feed(frame):
                        from_bytes(payload)

            out["net.codec.decode_mb_per_s"] = megabytes / median_seconds(decode)

    guarded(tracer, "net.wire", wire)
    return out


def plan_generation(tracer: Tracer, spec: Any, rate: Any) -> Optional[float]:
    """``workload.generate_plan_us_per_tx``: the seeded plan expansion."""

    def run() -> Optional[float]:
        generate = resolve(
            tracer, "workload.generate_plan_us_per_tx", "repro.workload:generate_plan"
        )
        if generate is None:
            return None
        count = len(generate(spec, rate=rate))
        return 1e6 * median_seconds(lambda: generate(spec, rate=rate)) / count

    return guarded(tracer, "workload.generate_plan_us_per_tx", run)
