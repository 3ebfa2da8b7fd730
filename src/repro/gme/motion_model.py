"""Parametric global motion models for the MPEG-7 GME workload.

The MPEG-7 eXperimentation Model's global motion estimation fits a
parametric camera-motion model between frames.  We implement the two
model classes the mosaicing evaluation needs:

* :class:`TranslationalModel` -- 2 parameters ``(tx, ty)``;
* :class:`AffineModel` -- 6 parameters (the 2x3 matrix), covering pan,
  zoom, rotation and shear.

A model maps *current-frame* coordinates to *reference-frame*
coordinates: ``warp(current, model)`` resamples the current frame so it
aligns with the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: A pair of coordinate planes ``(x, y)``.
Planes = Tuple[np.ndarray, np.ndarray]


def _coordinate_planes(xs: np.ndarray, ys: np.ndarray,
                       out: Optional[Planes]) -> Planes:
    """Where a model's ``apply`` writes the mapped coordinates: ``out``,
    two float64 planes of the broadcast shape of ``xs`` and ``ys`` (the
    warp passes its block scratch), or two new ones.  Either way each
    coordinate is rounded the same way, so ``out`` changes no bit."""
    if out is not None:
        return out
    shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
    return np.empty(shape), np.empty(shape)


def _linear(p: float, q: float, t: float, xs: np.ndarray, ys: np.ndarray,
            out: np.ndarray) -> np.ndarray:
    """``(p x + q y) + t`` into ``out``, rounded in that order."""
    np.multiply(p, xs, out=out)
    out += q * ys
    out += t
    return out


@dataclass(frozen=True)
class TranslationalModel:
    """Pure translation: ``(x, y) -> (x + tx, y + ty)``."""

    tx: float = 0.0
    ty: float = 0.0

    @property
    def parameters(self) -> np.ndarray:
        return np.array([self.tx, self.ty], dtype=np.float64)

    def apply(self, xs: np.ndarray, ys: np.ndarray,
              out: Optional[Planes] = None) -> Planes:
        """Map coordinate arrays through the model (see
        :func:`_coordinate_planes` for ``out``)."""
        sx, sy = _coordinate_planes(xs, ys, out)
        np.add(xs, self.tx, out=sx)
        np.add(ys, self.ty, out=sy)
        return sx, sy

    def compose(self, other: "TranslationalModel") -> "TranslationalModel":
        """``self`` after ``other``: translations add."""
        return TranslationalModel(self.tx + other.tx, self.ty + other.ty)

    def inverse(self) -> "TranslationalModel":
        return TranslationalModel(-self.tx, -self.ty)

    def scaled(self, factor: float) -> "TranslationalModel":
        """The same motion expressed at a resampled pyramid level."""
        return TranslationalModel(self.tx * factor, self.ty * factor)

    def with_update(self, delta: np.ndarray) -> "TranslationalModel":
        """Apply a Gauss-Newton parameter update."""
        return TranslationalModel(self.tx + float(delta[0]),
                                  self.ty + float(delta[1]))

    def to_affine(self) -> "AffineModel":
        return AffineModel(1.0, 0.0, self.tx, 0.0, 1.0, self.ty)


@dataclass(frozen=True)
class AffineModel:
    """Affine motion: ``x' = a x + b y + tx``, ``y' = c x + d y + ty``."""

    a: float = 1.0
    b: float = 0.0
    tx: float = 0.0
    c: float = 0.0
    d: float = 1.0
    ty: float = 0.0

    @property
    def parameters(self) -> np.ndarray:
        return np.array([self.a, self.b, self.tx, self.c, self.d, self.ty],
                        dtype=np.float64)

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 homogeneous matrix."""
        return np.array([[self.a, self.b, self.tx],
                         [self.c, self.d, self.ty],
                         [0.0, 0.0, 1.0]], dtype=np.float64)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "AffineModel":
        if matrix.shape != (3, 3):
            raise ValueError(f"need a 3x3 matrix, got {matrix.shape}")
        return cls(a=float(matrix[0, 0]), b=float(matrix[0, 1]),
                   tx=float(matrix[0, 2]), c=float(matrix[1, 0]),
                   d=float(matrix[1, 1]), ty=float(matrix[1, 2]))

    def apply(self, xs: np.ndarray, ys: np.ndarray,
              out: Optional[Planes] = None) -> Planes:
        """Map coordinate arrays through the model (see
        :func:`_coordinate_planes` for ``out``)."""
        sx, sy = _coordinate_planes(xs, ys, out)
        _linear(self.a, self.b, self.tx, xs, ys, sx)
        _linear(self.c, self.d, self.ty, xs, ys, sy)
        return sx, sy

    def compose(self, other: "AffineModel") -> "AffineModel":
        """``self`` after ``other`` (matrix product)."""
        return AffineModel.from_matrix(self.matrix @ other.matrix)

    def inverse(self) -> "AffineModel":
        return AffineModel.from_matrix(np.linalg.inv(self.matrix))

    def scaled(self, factor: float) -> "AffineModel":
        """The same motion at a resampled pyramid level: linear part is
        scale-invariant, the translation scales."""
        return AffineModel(self.a, self.b, self.tx * factor,
                           self.c, self.d, self.ty * factor)

    def with_update(self, delta: np.ndarray) -> "AffineModel":
        """Apply a Gauss-Newton update in parameter order
        ``(a, b, tx, c, d, ty)``."""
        p = self.parameters + np.asarray(delta, dtype=np.float64)
        return AffineModel(*p)

    def to_affine(self) -> "AffineModel":
        return self

    @property
    def translation(self) -> Tuple[float, float]:
        return self.tx, self.ty


@dataclass(frozen=True)
class PerspectiveModel:
    """The full 8-parameter MPEG-7 GME model (planar homography).

    ``x' = (a x + b y + tx) / (px x + py y + 1)`` and analogously for
    ``y'`` -- the model class the XM mosaicing tool fits for non-fronto-
    parallel scenes.  The reproduction's estimator refines affine models
    (sufficient for the synthetic pan/zoom sequences); this class
    completes the model algebra so perspective content can be expressed,
    warped and composed.
    """

    a: float = 1.0
    b: float = 0.0
    tx: float = 0.0
    c: float = 0.0
    d: float = 1.0
    ty: float = 0.0
    px: float = 0.0
    py: float = 0.0

    @property
    def parameters(self) -> np.ndarray:
        return np.array([self.a, self.b, self.tx, self.c, self.d,
                         self.ty, self.px, self.py], dtype=np.float64)

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 homography matrix (last entry normalised to 1)."""
        return np.array([[self.a, self.b, self.tx],
                         [self.c, self.d, self.ty],
                         [self.px, self.py, 1.0]], dtype=np.float64)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "PerspectiveModel":
        if matrix.shape != (3, 3):
            raise ValueError(f"need a 3x3 matrix, got {matrix.shape}")
        scale = matrix[2, 2]
        if abs(scale) < 1e-12:
            raise ValueError("degenerate homography (h33 ~ 0)")
        m = matrix / scale
        return cls(a=float(m[0, 0]), b=float(m[0, 1]), tx=float(m[0, 2]),
                   c=float(m[1, 0]), d=float(m[1, 1]), ty=float(m[1, 2]),
                   px=float(m[2, 0]), py=float(m[2, 1]))

    @classmethod
    def from_affine(cls, affine: AffineModel) -> "PerspectiveModel":
        return cls(a=affine.a, b=affine.b, tx=affine.tx,
                   c=affine.c, d=affine.d, ty=affine.ty)

    def apply(self, xs: np.ndarray, ys: np.ndarray,
              out: Optional[Planes] = None) -> Planes:
        """Map coordinate arrays through the homography (see
        :func:`_coordinate_planes` for ``out``; the denominator takes
        one temporary plane)."""
        sx, sy = _coordinate_planes(xs, ys, out)
        w = _linear(self.px, self.py, 1.0, xs, ys, np.empty_like(sx))
        _linear(self.a, self.b, self.tx, xs, ys, sx)
        sx /= w
        _linear(self.c, self.d, self.ty, xs, ys, sy)
        sy /= w
        return sx, sy

    def compose(self, other: "PerspectiveModel") -> "PerspectiveModel":
        """``self`` after ``other`` (matrix product)."""
        return PerspectiveModel.from_matrix(self.matrix @ other.matrix)

    def inverse(self) -> "PerspectiveModel":
        return PerspectiveModel.from_matrix(np.linalg.inv(self.matrix))

    def scaled(self, factor: float) -> "PerspectiveModel":
        """The same motion at a resampled pyramid level: conjugate by the
        coordinate scaling ``S = diag(factor, factor, 1)``."""
        scaling = np.diag([factor, factor, 1.0])
        unscaling = np.diag([1.0 / factor, 1.0 / factor, 1.0])
        return PerspectiveModel.from_matrix(
            scaling @ self.matrix @ unscaling)

    @property
    def is_affine(self) -> bool:
        """Whether the perspective terms vanish."""
        return self.px == 0.0 and self.py == 0.0

    def to_affine(self) -> AffineModel:
        """Drop the perspective terms (exact only when :attr:`is_affine`)."""
        return AffineModel(self.a, self.b, self.tx,
                           self.c, self.d, self.ty)


#: Any supported model type.
MotionModel = (TranslationalModel, AffineModel, PerspectiveModel)


def identity_like(model) -> object:
    """An identity model of the same class as ``model``."""
    if isinstance(model, TranslationalModel):
        return TranslationalModel()
    if isinstance(model, AffineModel):
        return AffineModel()
    if isinstance(model, PerspectiveModel):
        return PerspectiveModel()
    raise TypeError(f"unknown motion model {type(model).__name__}")
