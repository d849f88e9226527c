import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.errors import BudgetError, ValidationError
from biphoton.sequence import (ANALOG_FULL_SCALE_V, DutyCycleSpec,
                               HardwareProfile, SequenceProgram, Slot,
                               compile_duty_cycle, emit_gates, encode_analog)

PS_PER_US = 1_000_000

PROFILE = HardwareProfile()  # 20 us slots, 16384 words, digital-only
SPEC = DutyCycleSpec(load_duration_us=500, fwm_duration_us=200, cycles=1)


class TestCompile:
    def test_700_us_cycle_uses_35_slots_and_words(self):
        program = compile_duty_cycle(SPEC, PROFILE)
        assert len(program.slots) == 35
        assert program.words_per_cycle == 35
        assert program.cycle_duration_us == 700

    def test_full_ram_plays_for_327_680_ms(self):
        profile = HardwareProfile(slot_duration_us=20, ram_words=16_384)
        program = SequenceProgram(slots=[Slot(0)] * 16_384, profile=profile,
                                  cycles=1, hardware_looped=False)
        assert program.stored_words == 16_384
        assert program.total_duration_us == 327_680

    def test_words_per_slot_scales_wall_time(self):
        profile = HardwareProfile(words_per_slot=4)
        assert profile.effective_slot_us == 80

    def test_durations_round_up_to_slot_boundary(self):
        spec = DutyCycleSpec(load_duration_us=490, fwm_duration_us=195)
        program = compile_duty_cycle(spec, PROFILE)
        assert program.cycle_duration_us == 700  # 500 + 200 after rounding
        assert len(program.rounding_notes) == 2
        assert "490" in program.rounding_notes[0]

    def test_single_cycle_over_budget_raises(self):
        profile = HardwareProfile(ram_words=30)
        with pytest.raises(BudgetError) as err:
            compile_duty_cycle(SPEC, profile)
        assert err.value.overflow_words == 5

    def test_many_cycles_fall_back_to_hardware_loop(self):
        program = compile_duty_cycle(
            DutyCycleSpec(load_duration_us=500, fwm_duration_us=200,
                          cycles=1000), PROFILE)
        assert program.hardware_looped
        assert program.stored_words == 35

    def test_channel_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            compile_duty_cycle(DutyCycleSpec(gate_channel=23), PROFILE)

    def test_analog_needs_wide_slots(self):
        spec = DutyCycleSpec(analog_levels_v={0: 1.0})
        with pytest.raises(ValidationError):
            compile_duty_cycle(spec, PROFILE)
        program = compile_duty_cycle(spec, HardwareProfile(words_per_slot=2))
        assert len(program.slots[0].analog_words) == 1

    def test_export_csv(self, tmp_path):
        program = compile_duty_cycle(SPEC, PROFILE)
        out = tmp_path / "program.csv"
        program.export_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "slot,time_us,digital_word_hex,analog_words"
        assert len(lines) == 36


class TestGates:
    def test_gate_windows_match_fwm_duration_and_period(self):
        spec = DutyCycleSpec(load_duration_us=500, fwm_duration_us=200, cycles=3)
        gates = emit_gates(compile_duty_cycle(spec, PROFILE), spec.gate_channel)
        assert len(gates) == 3
        for i, g in enumerate(gates):
            assert g[1] - g[0] == 200 * PS_PER_US
            assert g[0] == (i * 700 + 500) * PS_PER_US

    def test_total_gate_time_is_exact_product(self):
        spec = DutyCycleSpec(load_duration_us=500, fwm_duration_us=200, cycles=85)
        gates = emit_gates(compile_duty_cycle(spec, PROFILE), spec.gate_channel)
        assert sum(g[1] - g[0] for g in gates) == 85 * 200 * PS_PER_US

    def test_gate_always_low_yields_no_windows(self):
        program = compile_duty_cycle(SPEC, PROFILE)
        assert len(emit_gates(program, 9)) == 0

    def test_gate_always_high_yields_one_window_per_loop(self):
        spec = DutyCycleSpec(always_on_channels=(5,), cycles=2)
        program = compile_duty_cycle(spec, PROFILE)
        gates = emit_gates(program, 5)
        # Adjacent cycles merge into one continuous span.
        assert len(gates) == 1
        assert gates[0][1] - gates[0][0] == program.total_duration_us * PS_PER_US


def per_slot_gates(program, channel):
    """Reference: walk every slot of the unrolled program and grow a
    window while the gate bit stays high."""
    slot_ps = program.profile.effective_slot_us * PS_PER_US
    windows = []
    for i, slot in enumerate(program.slots * program.cycles):
        if slot.digital_word >> channel & 1:
            if windows and windows[-1][1] == i * slot_ps:
                windows[-1][1] += slot_ps
            else:
                windows.append([i * slot_ps, (i + 1) * slot_ps])
    return windows


def hand_built(words, cycles):
    return SequenceProgram(slots=[Slot(w) for w in words], profile=PROFILE,
                           cycles=cycles, hardware_looped=False)


@pytest.mark.parametrize("program, channel", [
    (compile_duty_cycle(DutyCycleSpec(cycles=0), PROFILE), 2),
    (compile_duty_cycle(DutyCycleSpec(cycles=4), PROFILE), 9),  # never high
    (compile_duty_cycle(DutyCycleSpec(always_on_channels=(5,), cycles=3),
                        PROFILE), 5),  # always high: one window
    (compile_duty_cycle(DutyCycleSpec(cycles=4), PROFILE), 2),  # ends at the edge
    (hand_built([1, 0, 0, 1, 1], cycles=4), 0),  # merges across cycle edges
    (hand_built([0, 1, 0, 1, 0], cycles=3), 0),  # two spans per cycle
])
def test_emit_gates_matches_per_slot_reference(program, channel):
    gates = emit_gates(program, channel)
    assert gates.dtype == np.int64 and gates.shape[1:] == (2,)
    assert gates.tolist() == per_slot_gates(program, channel)


class TestValidate:
    @settings(max_examples=200, deadline=None)
    @given(slot_us=st.integers(1, 100), ram_words=st.integers(1, 20_000),
           words_per_slot=st.sampled_from((1, 2, 4)),
           load_us=st.floats(0.5, 5000.0), fwm_us=st.floats(0.5, 5000.0),
           cycles=st.integers(0, 2000), analog=st.booleans())
    def test_compiled_program_is_clean(self, slot_us, ram_words, words_per_slot,
                                       load_us, fwm_us, cycles, analog):
        # What compile returns fits the card: the words it stores fit RAM,
        # its digital words drive only the card's channels and its analog
        # words fit the slot format.
        profile = HardwareProfile(slot_duration_us=slot_us, ram_words=ram_words,
                                  words_per_slot=words_per_slot)
        levels = {0: 1.0, 1: 2.0} if analog and words_per_slot > 1 else {}
        spec = DutyCycleSpec(load_duration_us=load_us, fwm_duration_us=fwm_us,
                             cycles=cycles, analog_levels_v=levels)
        try:
            program = compile_duty_cycle(spec, profile)
        except BudgetError as err:
            assert err.overflow_words > 0
            return
        assert program.stored_words <= profile.ram_words
        for slot in program.slots:
            assert slot.digital_word >> profile.digital_channels == 0
            assert len(slot.analog_words) <= profile.words_per_slot - 1


class TestAnalogEncoding:
    def test_full_scale_maps_to_max_code(self):
        assert encode_analog(ANALOG_FULL_SCALE_V) == (1 << 32) - 1

    def test_zero_maps_to_zero(self):
        assert encode_analog(0.0) == 0

    def test_midscale(self):
        code = encode_analog(ANALOG_FULL_SCALE_V / 2)
        assert abs(code - ((1 << 32) - 1) / 2) <= 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            encode_analog(-0.1)
        with pytest.raises(ValidationError):
            encode_analog(3.4)
