"""Duty-cycle compiler for a word-budgeted streaming DAQ card.

The card plays back RAM words on a fixed slot clock: one 16-bit word per
slot drives the digital bank, two words per slot add one 32-bit analog
value, four words per slot use the full resources. Durations round UP to
slot boundaries, each rounding noted in ``rounding_notes``; a program
either unrolls all cycles into RAM or marks itself hardware-looped when
only a single cycle fits. ``emit_gates`` turns the gate channel into the
acquisition windows every other layer uses: a sorted, disjoint ``(n, 2)``
int64 array of half-open ``[start, end)`` ps windows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ValidationError, check_fields

PS_PER_US = 1_000_000
ANALOG_FULL_SCALE_V = 3.3
ANALOG_LEVELS = 1 << 32


@dataclass(frozen=True)
class HardwareProfile:
    slot_duration_us: int = 20
    ram_words: int = 16_384
    words_per_slot: int = 1  # 1 digital-only | 2 one analog | 4 full resources
    digital_channels: int = 23
    analog_channels: int = 2

    def __post_init__(self):
        check_fields(self)
        for name in ("slot_duration_us", "ram_words"):
            if getattr(self, name) <= 0:
                raise ValidationError("must be positive", field=name)
        if self.words_per_slot not in (1, 2, 4):
            raise ValidationError("must be 1, 2 or 4", field="words_per_slot")

    @property
    def effective_slot_us(self) -> int:
        """Wall time consumed per slot: one RAM word transmission each."""
        return self.slot_duration_us * self.words_per_slot


@dataclass(frozen=True)
class DutyCycleSpec:
    """One load + acquire cycle and its channel assignments."""

    load_duration_us: float = 500.0
    fwm_duration_us: float = 200.0
    cycles: int = 1
    cooling_channel: int = 0
    pump_channel: int = 1
    gate_channel: int = 2
    always_on_channels: tuple[int, ...] = ()
    analog_levels_v: dict[int, float] = field(default_factory=dict)  # channel -> volts

    def __post_init__(self):
        check_fields(self)
        if self.load_duration_us <= 0 or self.fwm_duration_us <= 0:
            raise ValidationError("durations must be positive", field="duration")
        if self.cycles < 0:
            raise ValidationError("must be non-negative", field="cycles")


@dataclass(frozen=True)
class Slot:
    digital_word: int
    analog_words: tuple[int, ...] = ()


@dataclass
class SequenceProgram:
    slots: list[Slot]
    profile: HardwareProfile
    cycles: int
    hardware_looped: bool
    rounding_notes: list = field(default_factory=list)

    @property
    def words_per_cycle(self) -> int:
        return len(self.slots) * self.profile.words_per_slot

    @property
    def stored_words(self) -> int:
        """Words occupying RAM: one cycle when looped, all cycles unrolled."""
        return self.words_per_cycle * (1 if self.hardware_looped else self.cycles)

    @property
    def total_duration_us(self) -> int:
        return len(self.slots) * self.profile.effective_slot_us * self.cycles

    @property
    def cycle_duration_us(self) -> int:
        return len(self.slots) * self.profile.effective_slot_us

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slot", "time_us", "digital_word_hex", "analog_words"])
            t = 0
            for i, slot in enumerate(self.slots):
                analog = ";".join(f"{w:04x}" for w in slot.analog_words)
                writer.writerow([i, t, f"{slot.digital_word:06x}", analog])
                t += self.profile.effective_slot_us


def encode_analog(volts: float) -> int:
    """Round-to-nearest 32-bit code over the 3.3 V full scale."""
    if not 0.0 <= volts <= ANALOG_FULL_SCALE_V:
        raise ValidationError(f"{volts} V outside 0..{ANALOG_FULL_SCALE_V} V",
                              field="analog_levels_v")
    return min(round(volts / ANALOG_FULL_SCALE_V * (ANALOG_LEVELS - 1)),
               ANALOG_LEVELS - 1)


def _round_up_slots(duration_us: float, slot_us: int):
    slots = -(-int(round(duration_us * 1000)) // (slot_us * 1000))
    rounded = slots * slot_us
    return max(slots, 1), rounded


def compile_duty_cycle(spec: DutyCycleSpec, profile: HardwareProfile) -> SequenceProgram:
    """Compile one duty cycle into slots and enforce the word budget."""
    channels = [spec.cooling_channel, spec.pump_channel, spec.gate_channel,
                *spec.always_on_channels]
    for ch in channels:
        if not 0 <= ch < profile.digital_channels:
            raise ValidationError(f"digital channel {ch} out of range "
                                  f"0..{profile.digital_channels - 1}", field="channels")
    for ch in spec.analog_levels_v:
        if not 0 <= ch < profile.analog_channels:
            raise ValidationError(f"analog channel {ch} out of range", field="analog_levels_v")
    if spec.analog_levels_v and profile.words_per_slot == 1:
        raise ValidationError("analog levels need words_per_slot >= 2",
                              field="words_per_slot")

    slot_us = profile.effective_slot_us
    notes = []
    load_slots, load_rounded = _round_up_slots(spec.load_duration_us, slot_us)
    if load_rounded != spec.load_duration_us:
        notes.append(f"load duration rounded up {spec.load_duration_us} -> "
                     f"{load_rounded} us")
    fwm_slots, fwm_rounded = _round_up_slots(spec.fwm_duration_us, slot_us)
    if fwm_rounded != spec.fwm_duration_us:
        notes.append(f"fwm duration rounded up {spec.fwm_duration_us} -> "
                     f"{fwm_rounded} us")

    always_mask = 0
    for ch in spec.always_on_channels:
        always_mask |= 1 << ch
    load_word = always_mask | (1 << spec.cooling_channel)
    fwm_word = always_mask | (1 << spec.pump_channel) | (1 << spec.gate_channel)

    analog_words: tuple[int, ...] = ()
    if spec.analog_levels_v:
        words = []
        for ch in sorted(spec.analog_levels_v):
            code = encode_analog(spec.analog_levels_v[ch])
            words += [code & 0xFFFF, code >> 16]
        analog_words = tuple(words[: profile.words_per_slot - 1])

    slots = ([Slot(load_word, analog_words)] * load_slots
             + [Slot(fwm_word, analog_words)] * fwm_slots)
    words_per_cycle = len(slots) * profile.words_per_slot
    if words_per_cycle > profile.ram_words:
        raise BudgetError("single cycle exceeds RAM",
                          words_per_cycle - profile.ram_words)
    looped = words_per_cycle * max(spec.cycles, 1) > profile.ram_words

    return SequenceProgram(slots=slots, profile=profile, cycles=spec.cycles,
                           hardware_looped=looped, rounding_notes=notes)


def emit_gates(program: SequenceProgram, gate_channel: int) -> np.ndarray:
    """Maximal contiguous spans where the gate bit is high, as an ``(n, 2)``
    int64 array of half-open ps windows on the absolute program timeline."""
    slot_ps = program.profile.effective_slot_us * PS_PER_US
    cycle_ps = len(program.slots) * slot_ps
    high = np.array([slot.digital_word >> gate_channel & 1 for slot in program.slots],
                    dtype=np.int8)
    edges = np.diff(high, prepend=0, append=0)
    spans = np.stack([np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)],
                     axis=1).astype(np.int64) * slot_ps
    offsets = np.arange(program.cycles, dtype=np.int64) * cycle_ps
    windows = (offsets[:, None, None] + spans).reshape(-1, 2)
    del offsets
    # A span that ends at the cycle edge touches the next cycle's first span.
    touch = windows[1:, 0] == windows[:-1, 1]
    if not touch.any():
        return windows
    return np.stack([windows[np.r_[True, ~touch], 0],
                     windows[np.r_[~touch, True], 1]], axis=1)
