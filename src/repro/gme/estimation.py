"""Global motion estimation on top of AddressLib (the Table 3 workload).

The algorithm follows the MPEG-7 XM global motion estimation structure:
a dyadic luminance pyramid, coarse-to-fine Gauss-Newton refinement of a
parametric motion model, SAD-monitored convergence, and (for mosaicing)
a per-pair blend mask.  Every pixel-level step is an AddressLib call, so
the *same* code runs on the software backend or the AddressEngine:

* pyramid low-pass filtering -- ``intra`` box filter per level;
* reference gradients -- ``intra`` Sobel x and y per level;
* SAD of reference vs motion-compensated current -- ``inter`` absolute
  difference reduced to a scalar, once per refinement iteration;
* the blend mask -- one ``intra`` homogeneity call per pair.

The per-pair call mix this produces (roughly ``3 levels x 2 + 2`` intra
calls and one inter call per iteration) is what generates Table 3's
intra/inter call-count columns.

Host-resident work (warping, normal-equation solves, control) is charged
through an optional ``charge`` callback so the evaluation runtime can
price it on the platform's host CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..addresslib.library import AddressLib, BatchCall, BatchExecutor
from ..addresslib.ops import (INTER_ABSDIFF, INTRA_BOX3, INTRA_HOMOGENEITY,
                              INTRA_SOBEL_X, INTRA_SOBEL_Y)
from ..image.formats import ImageFormat
from ..image.frame import Frame
from ..image.pixel import Channel
from ..image.synth import frame_from_luma
from .motion_model import AffineModel
from .warp import WarpWorkspace, decimate2

#: Instructions charged to the host per warped pixel (bilinear resample
#: plus residual accumulation in the host loop).
HOST_WARP_INSTRUCTIONS_PER_PIXEL = 14.0

#: Instructions charged per Gauss-Newton solve (small dense system).
HOST_SOLVE_INSTRUCTIONS = 4000.0


@dataclass(frozen=True)
class GmeSettings:
    """Tunables of the estimator."""

    levels: int = 3
    max_iterations_per_level: int = 6
    #: Stop refining a level when the SAD improves by less than this
    #: relative fraction.
    convergence_tol: float = 0.01
    #: Fit the full affine model at the finest level; coarser levels use
    #: the translational model (the XM-style progressive model order).
    affine_at_finest: bool = True
    #: Subsample factor of the normal-equation sums (XM subsamples too).
    gn_subsample: int = 2


@dataclass
class PyramidLevel:
    """One pyramid level of a frame: the Frame plus a private copy of
    its 8-bit luma (the warp's source and fill)."""

    frame: Frame
    luma: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        return self.luma.shape


@dataclass
class PairEstimate:
    """Result of aligning one frame pair."""

    model: AffineModel
    final_sad: float
    iterations: int
    per_level_iterations: List[int] = field(default_factory=list)
    #: The blend mask from the homogeneity call (finest level).
    #: :meth:`~repro.gme.xm.GmeApplication.run_sequence` drops it (sets
    #: ``None``) once the mosaic, if any, has used it.
    blend_mask: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _StepSystem:
    """One pyramid level's model-independent Gauss-Newton inputs (see
    :meth:`GlobalMotionEstimator._step_system`)."""

    #: The subsampled reference luma, flattened row-major.
    reference: np.ndarray
    #: ``(pixels, parameters)``: one Jacobian row per subsampled pixel,
    #: row-major.
    jacobian: np.ndarray
    #: The coordinate normalisation of the affine columns.
    scale: int


class GlobalMotionEstimator:
    """Coarse-to-fine parametric GME expressed in AddressLib calls."""

    def __init__(self, lib: AddressLib,
                 settings: Optional[GmeSettings] = None,
                 charge: Optional[Callable[[float], None]] = None,
                 scheduler: Optional[BatchExecutor] = None) -> None:
        self.lib = lib
        self.settings = settings or GmeSettings()
        #: Optional pipelined call scheduler: the per-pair reference
        #: intra calls (Sobel per level + blend-mask homogeneity) are
        #: mutually independent and ship as one batch.
        self.scheduler = scheduler
        self._charge = charge or (lambda instructions: None)
        self._format_cache: Dict[Tuple[int, int], ImageFormat] = {}
        #: Every iteration of every pair warps into the same planes,
        #: one set per pyramid level.
        self._warp = WarpWorkspace()

    # -- pyramids -------------------------------------------------------------

    def build_pyramid(self, frame: Frame) -> List[PyramidLevel]:
        """The dyadic pyramid, finest first.

        Each coarser level is the AddressLib box filter (an intra call)
        followed by host-side decimation.
        """
        levels = [PyramidLevel(frame=frame,
                               luma=frame.read_plane(Channel.Y).copy())]
        current = frame
        for _ in range(self.settings.levels - 1):
            filtered = self.lib.intra(INTRA_BOX3, current)
            luma = decimate2(filtered.read_plane(Channel.Y)).copy()
            current = self._luma_frame(luma)
            levels.append(PyramidLevel(frame=current, luma=luma))
        return levels

    def _luma_frame(self, luma: np.ndarray) -> Frame:
        fmt = self._format_for(luma.shape)
        return frame_from_luma(fmt, luma)

    def _format_for(self, shape: Tuple[int, int]) -> ImageFormat:
        if shape not in self._format_cache:
            height, width = shape
            self._format_cache[shape] = ImageFormat(
                f"GME{width}x{height}", width, height)
        return self._format_cache[shape]

    # -- the estimator --------------------------------------------------------

    def estimate_pair(self, ref_pyramid: List[PyramidLevel],
                      cur_pyramid: List[PyramidLevel],
                      init: Optional[AffineModel] = None) -> PairEstimate:
        """Align the current frame to the reference frame.

        Args:
            ref_pyramid: Reference pyramid (finest first).
            cur_pyramid: Current-frame pyramid (finest first).
            init: Warm-start model in finest-level coordinates, oriented
                current -> reference (e.g. the previous pair's estimate,
                exploiting motion continuity).

        Returns:
            A :class:`PairEstimate` whose model maps finest-level
            *current*-frame coordinates to *reference*-frame coordinates
            (the orientation mosaic composition needs).

        Internally the refinement works with the opposite orientation --
        the warp samples the current frame on the reference grid, so the
        refined model maps reference coordinates to current coordinates
        -- and the result is inverted on return.
        """
        settings = self.settings
        model = (init or AffineModel()).inverse().scaled(
            0.5 ** (settings.levels - 1))
        total_iterations = 0
        per_level: List[int] = []
        final_sad = float("inf")

        gradients, mask_frame = self._pair_intra_batch(ref_pyramid)
        for level in range(settings.levels - 1, -1, -1):
            ref = ref_pyramid[level]
            cur = cur_pyramid[level]
            use_affine = settings.affine_at_finest and level == 0
            # Coarsest first, so a level's gradients are freed as soon
            # as its Gauss-Newton inputs are built.
            system = self._step_system(ref, *gradients.pop(), use_affine)
            model, sad, iterations = self._refine_level(
                ref, cur, model, system, use_affine)
            total_iterations += iterations
            per_level.append(iterations)
            final_sad = sad
            if level > 0:
                model = model.scaled(2.0)

        blend_mask = mask_frame.read_plane(Channel.Y) < 48
        per_level.reverse()
        model = model.inverse()  # return the current -> reference model
        return PairEstimate(model=model, final_sad=final_sad,
                            iterations=total_iterations,
                            per_level_iterations=per_level,
                            blend_mask=blend_mask)

    def _pair_intra_batch(self, ref_pyramid: List[PyramidLevel]):
        """All per-pair reference intra calls as one batch.

        The Sobel x/y calls per level and the blend-mask homogeneity
        call only read the (already built) reference pyramid, so they
        are mutually independent: one batch, shardable across engine
        workers when a scheduler is attached.  The Sobel ops store
        ``(acc >> 3) + 128``; undoing the bias and shift recovers the
        derivative in luma units per pixel (up to the Sobel kernel's
        gain of 8, folded into the solve consistently).

        Returns per-level ``(gx, gy)`` float gradients (finest first),
        taken only at the solve's ``gn_subsample`` stride (all
        :meth:`_step_system` reads), and the homogeneity mask frame of
        the finest level.
        """
        calls = []
        for ref in ref_pyramid:
            calls.append(BatchCall.intra(INTRA_SOBEL_X, ref.frame))
            calls.append(BatchCall.intra(INTRA_SOBEL_Y, ref.frame))
        calls.append(BatchCall.intra(INTRA_HOMOGENEITY,
                                     ref_pyramid[0].frame))
        results = self.lib.run_batch(calls, scheduler=self.scheduler)
        step = self.settings.gn_subsample
        gradients = []
        for level in range(len(ref_pyramid)):
            gx_frame = results[2 * level]
            gy_frame = results[2 * level + 1]
            assert isinstance(gx_frame, Frame)
            assert isinstance(gy_frame, Frame)
            gradients.append(tuple(
                np.subtract(frame.read_plane(Channel.Y)[::step, ::step],
                            128.0, dtype=np.float64)
                for frame in (gx_frame, gy_frame)))
        mask_frame = results[-1]
        assert isinstance(mask_frame, Frame)
        return gradients, mask_frame

    def _refine_level(self, ref: PyramidLevel, cur: PyramidLevel,
                      model: AffineModel, system: _StepSystem,
                      use_affine: bool):
        settings = self.settings
        best_model = model
        best_sad = None
        sad = float("inf")
        iterations = 0
        pixels = ref.luma.size

        for _ in range(settings.max_iterations_per_level):
            iterations += 1
            # Invalid (out-of-frame) samples copy the reference so they
            # contribute zero to the SAD.  The library sees only the new
            # frame made from the reused planes, never a rewritten one.
            warped, valid = self._warp.warp(cur.luma, model, fill=ref.luma)
            self._charge(HOST_WARP_INSTRUCTIONS_PER_PIXEL * pixels)
            warped_frame = self._luma_frame(warped)
            sad = float(self.lib.inter_reduce(INTER_ABSDIFF, ref.frame,
                                              warped_frame))
            if best_sad is None or sad < best_sad:
                best_sad = sad
                best_model = model
            elif sad > best_sad:
                model = best_model  # reject the diverging step
            if best_sad is not None and iterations > 1:
                improvement = (previous_sad - sad) / max(previous_sad, 1.0)
                if improvement < settings.convergence_tol:
                    break
            previous_sad = sad

            delta = self._gauss_newton_step(system, warped, valid,
                                            use_affine)
            if delta is None:
                break
            model = model.with_update(delta)

        return best_model, float(best_sad if best_sad is not None else sad), \
            iterations

    def _step_system(self, ref: PyramidLevel, jx: np.ndarray,
                     jy: np.ndarray, use_affine: bool) -> _StepSystem:
        """The parts of every Gauss-Newton step of one level that do not
        depend on the current model: the subsampled reference and one
        Jacobian row per subsampled pixel, from the gradients ``jx`` and
        ``jy`` at the ``gn_subsample`` stride.

        Each step takes the rows of its valid pixels, in row-major
        order, so it sees exactly the values -- and the ``(pixels,
        parameters)`` C-ordered layout -- that subsampling, masking and
        multiplying afresh would give it.  Affine rows are ``[jx xn,
        jx yn, jx, jy xn, jy yn, jy]`` with coordinates normalised by
        the larger side for conditioning; translational rows are
        ``[jx, jy]``.
        """
        step = self.settings.gn_subsample
        # The Sobel ops already divide the kernel's gain of 8 back out
        # (``acc >> 3``), so the unbiased planes are luma units per pixel.
        scale = max(ref.luma.shape)
        if use_affine:
            height, width = jx.shape
            xn = np.arange(0, step * width, step, dtype=np.float64) / scale
            yn = (np.arange(0, step * height, step, dtype=np.float64)
                  / scale)[:, np.newaxis]
            coordinates = (xn, yn, 1.0)
        else:
            coordinates = (1.0,)
        jacobian = np.empty(jx.shape + (2 * len(coordinates),))
        columns = [(g, c) for g in (jx, jy) for c in coordinates]
        for k, (gradient, coordinate) in enumerate(columns):
            np.multiply(gradient, coordinate, out=jacobian[..., k])
        return _StepSystem(
            reference=ref.luma[::step, ::step].astype(np.float64).ravel(),
            jacobian=jacobian.reshape(jx.size, -1), scale=scale)

    def _gauss_newton_step(self, system: _StepSystem, warped: np.ndarray,
                           valid: np.ndarray,
                           use_affine: bool) -> Optional[np.ndarray]:
        """One forward-additive Gauss-Newton update.

        With ``warped(x) = cur(model(x))`` and residual
        ``r = ref - warped``, the derivative of the residual with respect
        to the translation parameters is ``-grad(cur o model) ~ -grad(ref)``
        near convergence, giving the classic update
        ``delta = (J^T J)^{-1} J^T r`` with ``J = [gx, gy]`` (the signs of
        J and dr/dp cancel in the normal equations' right-hand side only
        up to orientation -- validated by the convergence tests).
        """
        step = self.settings.gn_subsample
        mask = valid[::step, ::step]
        rows = np.flatnonzero(mask)
        if not rows.size:
            return None
        r = system.reference.take(rows)
        r -= warped[::step, ::step][mask]
        jacobian = system.jacobian.take(rows, axis=0)
        self._charge(6.0 * r.size + HOST_SOLVE_INSTRUCTIONS)

        if not use_affine:
            jx = jacobian[:, 0]
            jy = jacobian[:, 1]
            a11 = float((jx * jx).sum())
            a12 = float((jx * jy).sum())
            a22 = float((jy * jy).sum())
            b1 = float((jx * r).sum())
            b2 = float((jy * r).sum())
            det = a11 * a22 - a12 * a12
            if abs(det) < 1e-9:
                return None
            dtx = (a22 * b1 - a12 * b2) / det
            dty = (a11 * b2 - a12 * b1) / det
            return np.array([0.0, 0.0, dtx, 0.0, 0.0, dty])

        normal = jacobian.T @ jacobian
        rhs = jacobian.T @ r
        try:
            delta = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            return None
        # Undo the coordinate normalisation on the linear-part parameters.
        scale = system.scale
        delta[0] /= scale
        delta[1] /= scale
        delta[3] /= scale
        delta[4] /= scale
        return delta
