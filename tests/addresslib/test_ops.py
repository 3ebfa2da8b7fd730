"""Pixel sub-functions: scalar/vector consistency and semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (CON_4, CON_8, CON_24, ChannelSet, INTER_OPS,
                              INTRA_OPS, fir_op, scale_offset_op,
                              threshold_op)
from repro.addresslib.ops import (INTER_ABSDIFF, INTER_ADD, INTER_AVG,
                                  INTER_MAX, INTER_MIN, INTER_MUL,
                                  INTER_SUB, INTRA_DILATE, INTRA_ERODE,
                                  INTRA_GRAD, INTRA_HOMOGENEITY,
                                  INTRA_MEDIAN3, INTRA_MORPH_GRAD)

bytes_ = st.integers(0, 255)


def assert_vector_matches_scalar(op, stack):
    """``op``'s vector face on ``stack`` equals its scalar face at every
    pixel, and returns 8-bit values."""
    vector = op.apply_vector(stack)
    assert vector.dtype == np.uint8, op.name
    columns = stack.reshape(stack.shape[0], -1).T
    expected = np.array([op.apply_scalar([int(v) for v in column])
                         for column in columns]).reshape(stack.shape[1:])
    assert np.array_equal(vector, expected), op.name


def extremal_stacks(size):
    """All-0, all-255, and -- for up to 12 planes -- every 0/255
    assignment to the planes, one per column.  The assignments include,
    for any weights, the two that drive ``sum_i w_i * v_i`` to its
    extremes (255 where ``w_i > 0`` resp. ``w_i < 0``)."""
    stacks = [np.zeros((size, 2, 3), np.uint8),
              np.full((size, 2, 3), 255, np.uint8)]
    if size <= 12:
        codes = np.arange(2 ** size)
        bits = (codes[np.newaxis, :] >> np.arange(size)[:, np.newaxis]) & 1
        stacks.append((bits * 255).astype(np.uint8)[:, np.newaxis, :])
    return stacks


def weight_extreme_stack(weights):
    """The two 0/255 stacks that maximise and minimise ``sum w_i v_i``."""
    signs = np.sign(np.asarray(weights))
    high = np.where(signs > 0, 255, 0)
    low = np.where(signs < 0, 255, 0)
    return np.stack([high, low], axis=1).astype(np.uint8)[:, np.newaxis, :]


class TestChannelSet:
    def test_members(self):
        assert ChannelSet.Y.channel_names == ("Y",)
        assert ChannelSet.YUV.channel_names == ("Y", "U", "V")
        assert ChannelSet.YUV.count == 3


class TestInterScalarSemantics:
    @given(a=bytes_, b=bytes_)
    def test_add_saturates(self, a, b):
        assert INTER_ADD.apply_scalar(a, b) == min(a + b, 255)

    @given(a=bytes_, b=bytes_)
    def test_sub_saturates_at_zero(self, a, b):
        assert INTER_SUB.apply_scalar(a, b) == max(a - b, 0)

    @given(a=bytes_, b=bytes_)
    def test_absdiff_symmetric(self, a, b):
        assert (INTER_ABSDIFF.apply_scalar(a, b)
                == INTER_ABSDIFF.apply_scalar(b, a) == abs(a - b))

    @given(a=bytes_, b=bytes_)
    def test_min_max_bracket(self, a, b):
        low = INTER_MIN.apply_scalar(a, b)
        high = INTER_MAX.apply_scalar(a, b)
        assert low <= high
        assert {low, high} == {min(a, b), max(a, b)}

    @given(a=bytes_, b=bytes_)
    def test_avg_rounds(self, a, b):
        assert INTER_AVG.apply_scalar(a, b) == (a + b + 1) // 2

    def test_mul_fixed_point(self):
        assert INTER_MUL.apply_scalar(255, 255) == (255 * 255) >> 8
        assert INTER_MUL.apply_scalar(0, 200) == 0


class TestInterVectorMatchesScalar:
    @pytest.mark.parametrize("op", list(INTER_OPS.values()),
                             ids=lambda op: op.name)
    def test_elementwise_agreement(self, op):
        rng = np.random.default_rng(17)
        a = rng.integers(0, 256, size=(7, 9)).astype(np.uint8)
        b = rng.integers(0, 256, size=(7, 9)).astype(np.uint8)
        vector = op.apply_vector(a, b)
        for y in range(7):
            for x in range(9):
                assert int(vector[y, x]) == op.apply_scalar(
                    int(a[y, x]), int(b[y, x])), op.name

    @pytest.mark.parametrize("op", list(INTER_OPS.values()),
                             ids=lambda op: op.name)
    def test_every_byte_pair(self, op):
        """All 256 x 256 operand pairs: includes all-0, all-255 and the
        0/255 pairs at the ends of every op's range."""
        a, b = np.meshgrid(np.arange(256, dtype=np.uint8),
                           np.arange(256, dtype=np.uint8), indexing="ij")
        vector = op.apply_vector(a, b)
        assert vector.dtype == np.uint8, op.name
        expected = np.array([[op.apply_scalar(x, y) for y in range(256)]
                             for x in range(256)])
        assert np.array_equal(vector, expected), op.name

    @pytest.mark.parametrize("op", list(INTER_OPS.values()),
                             ids=lambda op: op.name)
    def test_output_in_byte_range(self, op):
        rng = np.random.default_rng(18)
        a = rng.integers(0, 256, size=(5, 5)).astype(np.uint8)
        b = rng.integers(0, 256, size=(5, 5)).astype(np.uint8)
        out = op.apply_vector(a, b).astype(int)
        assert out.min() >= 0 and out.max() <= 255


class TestIntraVectorMatchesScalar:
    @pytest.mark.parametrize("op", list(INTRA_OPS.values()),
                             ids=lambda op: op.name)
    def test_stack_agreement(self, op):
        rng = np.random.default_rng(19)
        stack = rng.integers(0, 256,
                             size=(op.neighbourhood.size, 4, 6)
                             ).astype(np.uint8)
        vector = op.apply_vector(stack)
        for y in range(4):
            for x in range(6):
                values = [int(stack[i, y, x])
                          for i in range(op.neighbourhood.size)]
                assert int(vector[y, x]) == op.apply_scalar(values), op.name

    @pytest.mark.parametrize("op", list(INTRA_OPS.values()),
                             ids=lambda op: op.name)
    def test_extremal_stacks(self, op):
        for stack in extremal_stacks(op.neighbourhood.size):
            assert_vector_matches_scalar(op, stack)

    @pytest.mark.parametrize("op", [threshold_op(100),
                                    threshold_op(7, low=-3, high=300),
                                    scale_offset_op(3, 2, -40),
                                    scale_offset_op(-5, 3, 300),
                                    scale_offset_op(1, 100_000, 3)],
                             ids=lambda op: op.name)
    def test_con0_every_byte(self, op):
        stack = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        vector = op.apply_vector(stack)
        assert vector.dtype == np.uint8
        expected = [op.apply_scalar([v]) % 256 for v in range(256)]
        assert np.array_equal(vector.reshape(-1), expected), op.name

    def test_wrong_stack_depth_rejected(self):
        with pytest.raises(ValueError):
            INTRA_GRAD.apply_vector(np.zeros((3, 2, 2), np.uint8))

    def test_wrong_scalar_arity_rejected(self):
        with pytest.raises(ValueError):
            INTRA_GRAD.apply_scalar([1, 2, 3])


class TestMorphology:
    def test_erode_dilate_bracket_centre(self):
        values = [5, 200, 40, 90, 13, 77, 255, 0, 128]
        assert INTRA_ERODE.apply_scalar(values) == 0
        assert INTRA_DILATE.apply_scalar(values) == 255
        assert INTRA_MORPH_GRAD.apply_scalar(values) == 255

    def test_morph_gradient_zero_on_flat(self):
        assert INTRA_MORPH_GRAD.apply_scalar([9] * 9) == 0

    def test_median_of_known_set(self):
        values = [9, 1, 8, 2, 7, 3, 6, 4, 5]
        assert INTRA_MEDIAN3.apply_scalar(values) == 5


class TestGradientOps:
    def test_grad_zero_on_flat(self):
        assert INTRA_GRAD.apply_scalar([100] * 9) == 0

    def test_grad_responds_to_edge(self):
        # Offsets ordered row-major: left column dark, right bright.
        values = [0, 128, 255, 0, 128, 255, 0, 128, 255]
        assert INTRA_GRAD.apply_scalar(values) > 100

    def test_homogeneity_zero_on_flat(self):
        assert INTRA_HOMOGENEITY.apply_scalar([50] * 9) == 0

    def test_homogeneity_max_deviation(self):
        values = [50] * 9
        values[0] = 80
        assert INTRA_HOMOGENEITY.apply_scalar(values) == 30


class TestParameterisedOps:
    def test_threshold(self):
        op = threshold_op(100)
        assert op.apply_scalar([99]) == 0
        assert op.apply_scalar([100]) == 255

    def test_scale_offset(self):
        op = scale_offset_op(1, 2, 10)
        assert op.apply_scalar([100]) == 60
        assert op.apply_scalar([255]) == 137

    def test_scale_offset_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            scale_offset_op(1, 0, 0)

    def test_fir_identity_kernel(self):
        weights = [0] * 9
        weights[CON_8.offsets.index((0, 0))] = 1
        op = fir_op("identity", CON_8, weights)
        values = list(range(9))
        centre = values[CON_8.offsets.index((0, 0))]
        assert op.apply_scalar(values) == centre

    def test_fir_weight_count_checked(self):
        with pytest.raises(ValueError):
            fir_op("bad", CON_4, [1, 2, 3])

    @given(st.lists(bytes_, min_size=9, max_size=9))
    @settings(max_examples=50)
    def test_fir_box_matches_mean(self, values):
        op = fir_op("box_shift", CON_8, [1] * 9, shift=3)
        expected = min(sum(values) >> 3, 255)
        assert op.apply_scalar(values) == expected


class TestAccumulatorWidth:
    """``fir_op`` derives its accumulator width from its weights.  Each
    case's worst-case sum just exceeds the next narrower integer type,
    so an accumulator one size too small wraps and disagrees with the
    scalar face on the extremal stacks."""

    CASES = {
        "fits_int16": (CON_8, [64, -64, 0, 0, 0, 0, 0, 0, 0], 0,
                       None),
        "overflows_int16": (CON_8, [65, -64, 0, 0, 0, 0, 0, 0, 0], 0,
                            np.int16),
        "overflows_int32": (CON_8, [2 ** 23] * 5 + [-(2 ** 23)] * 4, 28,
                            np.int32),
        "con24_overflows_int16": (CON_24, list(range(-12, 13)), 2,
                                  np.int16),
        "wide_shift": (CON_4, [2 ** 30, 2 ** 30, -(2 ** 30), 1, 0], 40,
                       np.int32),
        "all_zero": (CON_4, [0] * 5, 1, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_scalar_at_the_extremes(self, case):
        neighbourhood, weights, shift, overflows = self.CASES[case]
        op = fir_op(case, neighbourhood, weights, shift=shift)
        worst = sum(abs(w) for w in weights) * 255
        if overflows is not None:
            assert worst > np.iinfo(overflows).max
        stacks = [weight_extreme_stack(weights)]
        stacks += extremal_stacks(neighbourhood.size)
        for stack in stacks:
            assert_vector_matches_scalar(op, stack)


class TestBatchAxis:
    """Every vector face reduces over axis 0 only, so extra axes after
    it are batch axes: a face applied to a ``(K, B, H, W)`` stack, or to
    ``(B, H, W)`` plane pairs, equals the per-item results stacked.
    ``VectorExecutor.wave`` runs a whole wave through one face call on
    this rule."""

    INTRA = list(INTRA_OPS.values()) + [
        threshold_op(7, low=-3, high=300), scale_offset_op(-5, 3, 300),
        fir_op("fir_con24", CON_24, list(range(-12, 13)), shift=2)]

    @staticmethod
    def _planes(rng, shape):
        """Random items, then an all-0 and an all-255 item."""
        planes = rng.integers(0, 256, size=(3,) + shape).astype(np.uint8)
        planes[1] = 0
        planes[2] = 255
        return planes

    @pytest.mark.parametrize("op", INTRA, ids=lambda op: op.name)
    def test_intra_face(self, op):
        rng = np.random.default_rng(21)
        stack = np.moveaxis(
            self._planes(rng, (op.neighbourhood.size, 4, 5)), 0, 1)
        batched = op.apply_vector(stack)
        items = [op.apply_vector(stack[:, b]) for b in range(3)]
        assert batched.dtype == items[0].dtype, op.name
        assert np.array_equal(batched, np.stack(items)), op.name

    @pytest.mark.parametrize("op", list(INTER_OPS.values()),
                             ids=lambda op: op.name)
    def test_inter_face(self, op):
        rng = np.random.default_rng(22)
        a = self._planes(rng, (4, 5))
        b = self._planes(rng, (4, 5))[::-1]
        batched = op.apply_vector(a, b)
        items = [op.apply_vector(a[i], b[i]) for i in range(3)]
        assert batched.dtype == items[0].dtype, op.name
        assert np.array_equal(batched, np.stack(items)), op.name


class TestCosts:
    @pytest.mark.parametrize("op", list(INTRA_OPS.values()),
                             ids=lambda op: op.name)
    def test_every_op_has_processing_cost(self, op):
        assert op.cost.total > 0

    def test_engine_latency_at_least_one(self):
        for op in list(INTRA_OPS.values()) + list(INTER_OPS.values()):
            assert op.engine_cycles >= 1
