"""The analytic timing model, validated against the cycle-level engine.

The closed form must reproduce the simulator's cycle counts exactly for
ordinary calls (the dataflow is deterministic) and within a small drain
tolerance for special inter calls.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addresslib import INTER_ABSDIFF, INTRA_COPY, INTRA_GRAD
from repro.core import AddressEngine, inter_config, intra_config
from repro.image import CIF, ImageFormat, noise_frame
from repro.perf import EngineTimingModel, list_scheduled_makespan
from repro.perf.timing import lpt_schedule

MODEL = EngineTimingModel()
ENGINE = AddressEngine()


class TestAgainstCycleModel:
    def test_intra_cycles_exact(self, fmt32, frame32):
        config = intra_config(INTRA_COPY, fmt32)
        run = ENGINE.run_call(config, frame32)
        assert MODEL.call_cycles(config) == run.cycles

    def test_intra_multi_cycle_op_still_hidden(self, fmt32, frame32):
        """Even a 3-cycle/pixel op hides behind the DMA transfers."""
        config = intra_config(INTRA_GRAD, fmt32)
        run = ENGINE.run_call(config, frame32)
        assert MODEL.call_cycles(config) == run.cycles

    def test_inter_cycles_exact(self, fmt32, frame32, frame32_b):
        config = inter_config(INTER_ABSDIFF, fmt32)
        run = ENGINE.run_call(config, frame32, frame32_b)
        assert MODEL.call_cycles(config) == run.cycles

    def test_reduce_cycles_exact(self, fmt32, frame32, frame32_b):
        config = inter_config(INTER_ABSDIFF, fmt32, reduce_to_scalar=True)
        run = ENGINE.run_call(config, frame32, frame32_b)
        assert MODEL.call_cycles(config) == pytest.approx(run.cycles,
                                                          rel=0.02)

    def test_special_inter_within_drain_tolerance(self, fmt32, frame32,
                                                  frame32_b):
        config = inter_config(INTER_ABSDIFF, fmt32, reduce_to_scalar=True,
                              requires_full_frames=True)
        run = ENGINE.run_call(config, frame32, frame32_b)
        assert MODEL.call_cycles(config) == pytest.approx(
            run.cycles, rel=0.02)

    def test_non_square_exact(self, fmt48x32):
        frame = noise_frame(fmt48x32, seed=1)
        config = intra_config(INTRA_COPY, fmt48x32)
        run = ENGINE.run_call(config, frame)
        assert MODEL.call_cycles(config) == run.cycles


class TestClosedForm:
    def test_cif_intra_payload(self):
        config = intra_config(INTRA_COPY, CIF)
        assert MODEL.input_words(config) == 202_752
        assert MODEL.readback_words(config) == 202_752
        assert MODEL.dma_jobs(config) == 19

    def test_cif_intra_board_time_near_6ms(self):
        """Two full-frame PCI passes at 264 MB/s: ~6.2 ms plus overheads."""
        config = intra_config(INTRA_COPY, CIF)
        assert MODEL.board_seconds(config) == pytest.approx(6.2e-3,
                                                            rel=0.05)

    def test_inter_costs_about_half_more(self):
        intra = intra_config(INTRA_COPY, CIF)
        inter = inter_config(INTER_ABSDIFF, CIF)
        ratio = MODEL.call_cycles(inter) / MODEL.call_cycles(intra)
        assert ratio == pytest.approx(1.5, abs=0.05)

    def test_special_fraction_is_an_eighth(self):
        """Section 4.1: the unhidden tail of a special inter op is 12.5 %
        of the input transfer time."""
        config = inter_config(INTER_ABSDIFF, CIF, reduce_to_scalar=True,
                              requires_full_frames=True)
        assert MODEL.non_pci_fraction(config) == pytest.approx(0.125,
                                                               abs=0.01)

    def test_ordinary_calls_have_no_unhidden_tail(self):
        assert MODEL.unhidden_processing_cycles(
            intra_config(INTRA_COPY, CIF)) == 0
        assert MODEL.unhidden_processing_cycles(
            inter_config(INTER_ABSDIFF, CIF)) == 0

    def test_zbt_bank_bandwidth_matches_paper(self):
        assert MODEL.zbt_bank_bytes_per_second() == 264_000_000

    def test_host_overhead_scales_with_interrupts(self):
        small = MODEL.host_overhead_seconds_raw(strips=2, images_in=1)
        large = MODEL.host_overhead_seconds_raw(strips=18, images_in=2)
        assert large > small
        expected = (MODEL.host_call_overhead_s
                    + 38 * MODEL.host_interrupt_service_s)
        assert large == pytest.approx(expected)

    def test_raw_and_config_paths_agree(self):
        config = inter_config(INTER_ABSDIFF, CIF)
        assert MODEL.call_cycles(config) == MODEL.call_cycles_raw(
            CIF.pixels, CIF.strips, 2, True)
        assert MODEL.call_seconds(config) == pytest.approx(
            MODEL.call_seconds_raw(CIF.pixels, CIF.strips, 2, True))


class TestResidentInputs:
    """Call chaining: the closed form vs the simulator with preloaded
    banks."""

    def test_one_resident_inter_input(self, fmt32, frame32, frame32_b):
        config = inter_config(INTER_ABSDIFF, fmt32, reduce_to_scalar=True)
        run = ENGINE.run_call(config, frame32, frame32_b,
                              resident=[True, False])
        model = MODEL.call_cycles_raw(fmt32.pixels, fmt32.strips, 2,
                                      False, resident_images=1)
        assert model == pytest.approx(run.cycles, rel=0.03)

    def test_all_resident_intra(self, fmt32, frame32):
        """No input phase: the readback stretches to three cycles per
        pixel (bank-B contention), which the model prices as one extra
        unhidden cycle per pixel."""
        config = intra_config(INTRA_COPY, fmt32)
        run = ENGINE.run_call(config, frame32, resident=[True])
        model = MODEL.call_cycles_raw(fmt32.pixels, fmt32.strips, 1,
                                      True, resident_images=1)
        assert model == pytest.approx(run.cycles, rel=0.02)
        # And the result is still bit-exact.
        assert run.frame.equals(
            AddressEngine.run_functional(config, frame32))

    def test_resident_cheaper_than_shipped(self, fmt32, frame32):
        config = intra_config(INTRA_COPY, fmt32)
        shipped = ENGINE.run_call(config, frame32)
        resident = ENGINE.run_call(config, frame32, resident=[True])
        assert resident.cycles < shipped.cycles
        assert resident.pci.words_to_board == 0

    def test_resident_count_validation(self):
        with pytest.raises(ValueError):
            MODEL.input_words_raw(100, 1, resident_images=2)


class TestStripPipelineOverlap:
    """The block_A/block_B double-buffer model (section 4.1)."""

    GEOMETRIES = [
        (176, 144), (352, 288), (24, 48), (20, 33), (4, 8), (24, 16),
    ]

    @pytest.mark.parametrize("width,height", GEOMETRIES)
    @pytest.mark.parametrize("images_in,produces_image",
                             [(1, True), (2, True), (2, False)])
    def test_overlapped_never_exceeds_serial(self, width, height,
                                             images_in, produces_image):
        fmt = ImageFormat(f"P{width}x{height}", width, height)
        serial = MODEL.serial_call_cycles_raw(
            fmt.pixels, fmt.strips, images_in, produces_image)
        overlapped = MODEL.overlapped_call_cycles_raw(
            fmt.pixels, fmt.strips, images_in, produces_image)
        assert overlapped <= serial + 1e-9
        assert overlapped > 0

    @pytest.mark.parametrize("width,height", GEOMETRIES)
    def test_efficiency_in_unit_interval(self, width, height):
        fmt = ImageFormat(f"P{width}x{height}", width, height)
        efficiency = MODEL.overlap_efficiency_raw(
            fmt.pixels, fmt.strips, 1, True)
        assert 0.0 <= efficiency < 1.0

    def test_full_frame_ops_get_no_overlap_credit(self):
        fmt = ImageFormat("P24x48", 24, 48)
        serial = MODEL.serial_call_cycles_raw(
            fmt.pixels, fmt.strips, 2, True, requires_full_frames=True)
        overlapped = MODEL.overlapped_call_cycles_raw(
            fmt.pixels, fmt.strips, 2, True, requires_full_frames=True)
        assert overlapped == float(serial)
        assert MODEL.overlap_efficiency_raw(
            fmt.pixels, fmt.strips, 2, True,
            requires_full_frames=True) == 0.0

    def test_more_strips_hide_more_transfer(self):
        # Same pixel count split into more strips overlaps better: the
        # first-strip fill and last-strip drain shrink.
        tall = ImageFormat("P16x96", 16, 96)     # 6 strips
        short = ImageFormat("P48x32", 48, 32)    # 2 strips, same pixels
        assert tall.pixels == short.pixels
        eff_tall = MODEL.overlap_efficiency_raw(
            tall.pixels, tall.strips, 1, True)
        eff_short = MODEL.overlap_efficiency_raw(
            short.pixels, short.strips, 1, True)
        assert eff_tall > eff_short

    def test_phases_sum_to_serial(self):
        fmt = ImageFormat("P24x48", 24, 48)
        transfer = MODEL.transfer_cycles_raw(fmt.pixels, fmt.strips, 1)
        compute = MODEL.compute_cycles_raw(fmt.pixels)
        readback = MODEL.readback_cycles_raw(fmt.pixels, True)
        assert (transfer + compute + readback
                == MODEL.serial_call_cycles_raw(fmt.pixels, fmt.strips,
                                                1, True))

    def test_seconds_variants_include_host_overhead(self):
        fmt = ImageFormat("P24x48", 24, 48)
        serial_s = MODEL.serial_call_seconds_raw(
            fmt.pixels, fmt.strips, 1, True)
        overlapped_s = MODEL.overlapped_call_seconds_raw(
            fmt.pixels, fmt.strips, 1, True)
        host = MODEL.host_overhead_seconds_raw(fmt.strips, 1)
        assert serial_s > host
        assert overlapped_s > host
        assert overlapped_s <= serial_s


class TestLptSchedule:
    @given(costs=st.lists(st.floats(0.0, 1.0, allow_nan=False),
                          max_size=40),
           engines=st.integers(1, 8))
    def test_groups_partition_and_peak_is_the_makespan(self, costs,
                                                       engines):
        groups, loads = lpt_schedule(costs, engines)
        assert len(groups) == len(loads) == engines
        placed = sorted(index for group in groups for index in group)
        assert placed == list(range(len(costs)))
        for group, load in zip(groups, loads):
            total = 0.0
            for index in group:  # placement order, as the rule adds
                total += costs[index]
            assert total == load
        assert max(loads) == list_scheduled_makespan(costs, engines)

    def test_longest_first_onto_least_loaded(self):
        # Ties: the earlier index first, the lower engine first.
        groups, loads = lpt_schedule([1.0, 3.0, 2.0, 2.0], 2)
        assert groups == [[1, 0], [2, 3]]
        assert loads == [4.0, 4.0]
        assert lpt_schedule([2.0, 2.0, 1.0], 2) == ([[0, 2], [1]],
                                                    [3.0, 2.0])
