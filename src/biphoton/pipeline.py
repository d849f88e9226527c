"""End-to-end simulation: duty cycle -> gate windows -> emission ->
detection -> tag stream. The gate windows are one ``(n, 2)`` int64 array
(see ``tagio.check_gates``), shared by every stage and written to the
stream's gate table.

Each species travels as one sorted int64 ps time array: its pair times,
merged with its chaotic singles when it has any, go through its own
detector into one channel, and ``tagio.merge_streams`` merges the two
channels once, signal first among equal times.

All randomness derives from the config's root seed through a fixed
spawn order (pairs, signal chaotic, idler chaotic, signal detector, idler
detector), so partial re-runs of one stage stay consistent with the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .sequence import compile_duty_cycle, emit_gates
from .simulate import detect, generate_chaotic_gated, generate_pairs
from .tagio import StreamHeader, TagStream, merge_streams, total_gate_time_ps

SIGNAL_CHANNEL = 0
IDLER_CHANNEL = 1


@dataclass
class SimulationResult:
    stream: TagStream
    live_time_s: float
    n_gates: int
    manifest: dict


def derive_stage_seeds(root_seed: int):
    """Fixed per-stage seed derivation from the root seed."""
    children = np.random.SeedSequence(root_seed).spawn(5)
    return {
        "pairs": children[0],
        "chaotic_signal": children[1],
        "chaotic_idler": children[2],
        "detect_signal": children[3],
        "detect_idler": children[4],
    }


def _species_times(paired: np.ndarray, chaotic: np.ndarray) -> np.ndarray:
    """One species' emission times, sorted: a stable sort merges the two
    sorted runs in one pass."""
    if not len(chaotic):
        return paired
    return np.sort(np.concatenate([paired, chaotic]), kind="stable")


def simulate_experiment(config: ExperimentConfig, config_hash: str = "") -> SimulationResult:
    program = compile_duty_cycle(config.duty_cycle, config.hardware)
    gates = emit_gates(program, config.duty_cycle.gate_channel)
    live_time_s = total_gate_time_ps(gates) * 1e-12
    seeds = derive_stage_seeds(config.seed)

    pairs = generate_pairs(config.source, gates, seeds["pairs"])
    chaotic_s = generate_chaotic_gated(config.source, "signal", gates,
                                       seeds["chaotic_signal"])
    chaotic_i = generate_chaotic_gated(config.source, "idler", gates,
                                       seeds["chaotic_idler"])

    header = StreamHeader(tick_ps=1, channel_count=2,
                          acquisition_seconds=live_time_s)
    stream_s = detect(_species_times(pairs.signal_ps, chaotic_s),
                      config.signal_detector, SIGNAL_CHANNEL,
                      seeds["detect_signal"], gates=gates, header=header)
    stream_i = detect(_species_times(pairs.idler_ps, chaotic_i),
                      config.idler_detector, IDLER_CHANNEL,
                      seeds["detect_idler"], gates=gates, header=header)
    stream = merge_streams(stream_s, stream_i)

    manifest = {
        "tool": "biphoton",
        "version": __version__,
        "seed": config.seed,
        "config_sha256": config_hash,
        "live_time_s": live_time_s,
        "n_gates": len(gates),
        "n_tags": len(stream),
        "n_pairs_emitted": len(pairs.signal_ps),
        "channels": {"signal": SIGNAL_CHANNEL, "idler": IDLER_CHANNEL},
    }
    return SimulationResult(stream=stream, live_time_s=live_time_s,
                            n_gates=len(gates), manifest=manifest)


def write_manifest(manifest: dict, path):
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
