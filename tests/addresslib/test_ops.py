"""Pixel sub-functions: scalar/vector consistency and semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addresslib import (COLUMN_9, CON_4, CON_8, CON_24, ChannelSet,
                              INTER_OPS, INTRA_OPS, dilate_op, erode_op,
                              fir_op, homogeneity_op, morph_gradient_op,
                              scale_offset_op, threshold_op)
from repro.addresslib.ops import (INTER_ABSDIFF, INTER_ADD, INTER_AVG,
                                  INTER_MAX, INTER_MIN, INTER_MUL,
                                  INTER_SUB, INTRA_BOX3, INTRA_DILATE,
                                  INTRA_ERODE, INTRA_GRAD,
                                  INTRA_HOMOGENEITY, INTRA_MEDIAN3,
                                  INTRA_MORPH_GRAD)

bytes_ = st.integers(0, 255)


def assert_vector_matches_scalar(op, padded):
    """``op``'s vector face on the padded input equals its scalar face
    at every output pixel, and returns 8-bit values.  The scalar face
    reads each neighbour straight from ``padded`` by its offset."""
    vector = op.apply_vector(padded)
    assert vector.dtype == np.uint8, op.name
    min_dx, min_dy, _, _ = op.neighbourhood.bounding_box()
    expected = np.empty(vector.shape, np.int64)
    for index in np.ndindex(vector.shape):
        *batch, y, x = index
        expected[index] = op.apply_scalar(
            [int(padded[(*batch, y + dy - min_dy, x + dx - min_dx)])
             for dx, dy in op.neighbourhood.offsets])
    assert np.array_equal(vector, expected), op.name


def padded_patches(neighbourhood, assignments):
    """One padded patch per assignment (one value per offset, in offset
    order): an ``(N, line_span, column_span)`` batch whose ``(N, 1, 1)``
    output pixel ``n`` sees exactly assignment ``n``.  Cells of the
    bounding box outside the neighbourhood (CON_4's corners) hold the
    opposite extreme of the centre, so a face that read them would
    disagree with its scalar face."""
    assignments = np.asarray(assignments, np.uint8)
    min_dx, min_dy, _, _ = neighbourhood.bounding_box()
    centre = assignments[:, neighbourhood.offsets.index((0, 0))]
    patches = np.empty((len(assignments), neighbourhood.line_span,
                        neighbourhood.column_span), np.uint8)
    patches[...] = (255 - centre)[:, np.newaxis, np.newaxis]
    for index, (dx, dy) in enumerate(neighbourhood.offsets):
        patches[:, dy - min_dy, dx - min_dx] = assignments[:, index]
    return patches


def extremal_patches(neighbourhood):
    """Every 0/255 assignment to up to 12 offsets (all-0 and all-255
    beyond), as padded patches.  The assignments include, for any
    weights, the two that drive ``sum_i w_i * v_i`` to its extremes (255
    where ``w_i > 0`` resp. ``w_i < 0``)."""
    size = neighbourhood.size
    if size > 12:
        return padded_patches(neighbourhood,
                              [[0] * size, [255] * size])
    codes = np.arange(2 ** size)
    bits = (codes[:, np.newaxis] >> np.arange(size)[np.newaxis, :]) & 1
    return padded_patches(neighbourhood, bits * 255)


def weight_extreme_patches(neighbourhood, weights):
    """The two 0/255 patches that maximise and minimise
    ``sum w_i v_i``."""
    signs = np.sign(np.asarray(weights))
    return padded_patches(neighbourhood, [np.where(signs > 0, 255, 0),
                                          np.where(signs < 0, 255, 0)])


def random_padded(rng, op, shape):
    """Random padded inputs whose outputs have ``shape`` (leading batch
    axes included)."""
    *batch, height, width = shape
    nb = op.neighbourhood
    size = (*batch, height + nb.line_span - 1, width + nb.column_span - 1)
    return rng.integers(0, 256, size=size).astype(np.uint8)


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


#: Every intra op, plus max/min faces on a cross (the window fold), a
#: one-column rectangle and a 5x5 rectangle (the row/column folds).
INTRA_FACES = list(INTRA_OPS.values()) + [
    erode_op(CON_4), dilate_op(CON_4), morph_gradient_op(CON_4),
    homogeneity_op(CON_4), erode_op(COLUMN_9), homogeneity_op(COLUMN_9),
    dilate_op(CON_24), morph_gradient_op(CON_24)]


class TestIntraVectorMatchesScalar:
    @pytest.mark.parametrize("op", INTRA_FACES, ids=lambda op: op.name)
    def test_stack_agreement(self, op):
        """Random padded planes, pixel by pixel."""
        rng = np.random.default_rng(19)
        assert_vector_matches_scalar(op, random_padded(rng, op, (2, 4, 6)))

    @pytest.mark.parametrize("op", INTRA_FACES, ids=lambda op: op.name)
    def test_extremal_stacks(self, op):
        """Every 0/255 assignment as one patch of a batch: for a CON_8
        op, a ``(512, 3, 3)`` batch and a ``(512, 1, 1)`` output."""
        patches = extremal_patches(op.neighbourhood)
        if op.neighbourhood == CON_8:
            assert patches.shape == (512, 3, 3)
        assert_vector_matches_scalar(op, patches)

    def test_con4_ignores_the_corners(self):
        """A CON_4 face reads the cross only: the corners of its padded
        patches hold the opposite extreme of the centre."""
        op = fir_op("fir_con4", CON_4, [4, -1, -1, -1, -1])
        patches = extremal_patches(CON_4)
        assert patches.shape == (32, 3, 3)
        assert np.array_equal(patches[:, 0, 0], 255 - patches[:, 1, 1])
        assert_vector_matches_scalar(op, patches)

    def test_box3_every_sum(self):
        """One patch per 3 x 3 sum from 0 to 9 * 255: the scaling
        ``* 57 >> 9`` is exact at every column sum."""
        assignments = []
        for total in range(9 * 255 + 1):
            full, rest = divmod(total, 255)
            assignments.append([255] * full + [rest] + [0] * (8 - full)
                               if full < 9 else [255] * 9)
        assert_vector_matches_scalar(
            INTRA_BOX3, padded_patches(CON_8, assignments))

    @pytest.mark.parametrize("op", [threshold_op(100),
                                    threshold_op(7, low=-3, high=300),
                                    scale_offset_op(3, 2, -40),
                                    scale_offset_op(-5, 3, 300),
                                    scale_offset_op(1, 100_000, 3)],
                             ids=lambda op: op.name)
    def test_con0_every_byte(self, op):
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        vector = op.apply_vector(plane)
        assert vector.dtype == np.uint8
        expected = [op.apply_scalar([v]) for v in range(256)]
        assert np.array_equal(vector.reshape(-1), expected), op.name

    def test_padded_input_too_small_rejected(self):
        """A CON_8 face needs at least 3 x 3 padded pixels per item."""
        for shape in [(2, 3), (3, 2), (4, 2, 5), (9,)]:
            with pytest.raises(ValueError):
                INTRA_GRAD.apply_vector(np.zeros(shape, np.uint8))

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
        assert_vector_matches_scalar(
            op, weight_extreme_patches(neighbourhood, weights))
        assert_vector_matches_scalar(op, extremal_patches(neighbourhood))


class TestBatchAxis:
    """Leading axes are batch axes to every vector face: a face applied
    to a ``(B, H', W')`` batch of padded inputs, or to ``(B, H, W)``
    plane pairs, equals the per-item results stacked.
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
        nb = op.neighbourhood
        padded = self._planes(rng, (3 + nb.line_span, 4 + nb.column_span))
        batched = op.apply_vector(padded)
        items = [op.apply_vector(padded[b]) for b in range(3)]
        assert batched.shape == (3, 4, 5), op.name
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
