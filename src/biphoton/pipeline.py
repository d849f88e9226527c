"""End-to-end simulation: duty cycle -> gate windows -> emission ->
detection -> tag stream. The gate windows are one ``(n, 2)`` int64 array
(see ``tagio.check_gates``), shared by every stage and written to the
stream's gate table.

``simulate_experiment`` runs the stages over blocks of whole gates, about
``_BLOCK_TAGS`` emitted events each, and hands each block's records to one
``StreamWriter``; the run's stream is never held whole. What it does hold:

* per tag, only one block's arrays (and the few tags carried into the
  next block);
* per gate, the gate table (16 bytes) and the pair counts (8 bytes, and
  8 more per detector with dark counts), because the header needs the
  gates and every count is drawn before the first block;
* per chaotic single, 8 bytes for the whole run, because each species'
  event count must be known before its detector starts.

Within a block each species travels as one sorted int64 ps time array:
its pair times, merged with its chaotic singles when it has any, go
through its own detector into one channel, and ``tagio.merge_records``
merges the two channels, signal first among equal times.

All randomness derives from the config's root seed through a fixed
spawn order (pairs, signal chaotic, idler chaotic, signal detector, idler
detector), so partial re-runs of one stage stay consistent with the rest.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .sequence import compile_duty_cycle, emit_gates
from .simulate import Detector, PairSource, detect, generate_chaotic_gated, generate_pairs
from .tagio import StreamHeader, StreamWriter, merge_records, total_gate_time_ps

SIGNAL_CHANNEL = 0
IDLER_CHANNEL = 1
SPECIES = ("signal", "idler")
_BLOCK_TAGS = 1 << 16  # emitted events per block of gates, about

log = logging.getLogger("biphoton")


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


def _block_edges(gates: np.ndarray, pair_counts: np.ndarray, singles):
    """Blocks of whole gates, a new one starting wherever the events
    emitted before a gate pass another multiple of ``_BLOCK_TAGS``.

    Returns the first gate of each block, then the gate count, and per
    block a tuple of each species' chaotic singles in it: views of
    ``singles`` split where the blocks' first gates start.
    """
    before = np.cumsum(pair_counts)
    before -= pair_counts
    before *= 2
    for times in singles:
        before += np.searchsorted(times, gates[:, 0])
    before //= _BLOCK_TAGS
    starts = np.flatnonzero(np.diff(before)) + 1
    split = [np.split(times, np.searchsorted(times, gates[starts, 0]))
             for times in singles]
    return [0, *starts.tolist(), len(gates)], list(zip(*split))


@contextmanager
def _timed(wall: dict, stage: str):
    started = perf_counter()
    yield
    wall[stage] += perf_counter() - started


def simulate_experiment(config: ExperimentConfig, sink, config_hash: str = "") -> dict:
    """Simulate one run, write its tag stream to ``sink`` (a path or a
    binary file object) and return the run manifest.

    Logs the loss budget on the ``biphoton`` logger, one DEBUG line per
    stage with its event counts and wall time: pairs emitted, chaotic
    singles, then per detector the events in, those kept by the quantum
    efficiency, the dark counts added, the tags removed by the +-5 sigma
    clip and by dead time and the tags out, and the tags written.
    """
    wall = dict.fromkeys(("pairs", "chaotic", *SPECIES, "write"), 0.0)
    program = compile_duty_cycle(config.duty_cycle, config.hardware)
    gates = emit_gates(program, config.duty_cycle.gate_channel)
    live_time_s = total_gate_time_ps(gates) * 1e-12
    seeds = derive_stage_seeds(config.seed)

    with _timed(wall, "pairs"):
        pairs = PairSource(config.source, gates, seeds["pairs"])
    with _timed(wall, "chaotic"):
        singles = [generate_chaotic_gated(config.source, species, gates,
                                          seeds[f"chaotic_{species}"])
                   for species in SPECIES]
    detectors = [Detector(det, pairs.n_pairs + len(times), seeds[f"detect_{species}"], gates)
                 for species, det, times in zip(
                     SPECIES, (config.signal_detector, config.idler_detector), singles)]
    # A tag this far before the next block's first gate can still be
    # passed by a tag of that block, jittered early.
    lead_ps = max(d.clip_ps for d in detectors)
    channels = (SIGNAL_CHANNEL, IDLER_CHANNEL)
    header = StreamHeader(channel_count=2, acquisition_seconds=live_time_s)
    edges, block_singles = _block_edges(gates, pairs.counts, singles)
    with StreamWriter(sink, header, gates) as writer:
        for lo, hi, chaotic in zip(edges[:-1], edges[1:], block_singles):
            block = slice(lo, hi)
            cut = int(gates[hi, 0]) if hi < len(gates) else None
            with _timed(wall, "pairs"):
                emitted = generate_pairs(pairs, block, cut)
            tags = []
            for k, paired in enumerate((emitted.signal_ps, emitted.idler_ps)):
                with _timed(wall, SPECIES[k]):
                    # A stable sort merges the two sorted runs in one pass.
                    batch = (np.sort(np.concatenate([paired, chaotic[k]]), kind="stable")
                             if len(chaotic[k]) else paired)
                    tags.append(detect(batch, detectors[k], block,
                                       None if cut is None else cut - lead_ps))
            with _timed(wall, "write"):
                writer.write(*merge_records(
                    [np.full(len(t), ch, np.uint8) for ch, t in zip(channels, tags)], tags))
    n_tags = sum(d.counts["out"] for d in detectors)

    log.debug("simulate pairs: emitted=%d wall_s=%.4f", pairs.n_pairs, wall["pairs"])
    log.debug("simulate chaotic: signal=%d idler=%d wall_s=%.4f",
              len(singles[0]), len(singles[1]), wall["chaotic"])
    for species, det in zip(SPECIES, detectors):
        log.debug("simulate detect %s: %s wall_s=%.4f", species,
                  " ".join(f"{k}={v}" for k, v in det.counts.items()), wall[species])
    log.debug("simulate write: tags=%d bytes=%d blocks=%d wall_s=%.4f", n_tags,
              writer.bytes_written, len(edges) - 1, wall["write"])
    return {
        "tool": "biphoton",
        "version": __version__,
        "seed": config.seed,
        "config_sha256": config_hash,
        "live_time_s": live_time_s,
        "n_gates": len(gates),
        "n_tags": n_tags,
        "n_pairs_emitted": pairs.n_pairs,
        "channels": {"signal": SIGNAL_CHANNEL, "idler": IDLER_CHANNEL},
    }


def write_manifest(manifest: dict, path):
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
