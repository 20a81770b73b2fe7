"""The 2x2 matrix weight on the open sector 0 < theta < pi/4.

The weight is assembled as K = L^T diag(d1, d2) L from a lower-level matrix
L(u) of hypergeometric entries in the slope u = x2/x1 and two parameter
constants d1, d2.  It is homogeneous of degree zero, so a point on the unit
circle (equivalently, the angle theta with u = tan theta) carries all the
information; values elsewhere in the plane follow from the group action and
are intentionally not computed here.

``eval_L`` needs the integrable region and ``d_consts`` the positive-definite
one, both flags of ``ParamPoint`` (defined in ``hyper``, which loads no numpy).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RegionError
from .hyper import _EPS, ParamPoint, _gauss_2f1_rows, gamma_fn

_HALF_SECTOR = math.pi / 4
# the tolerance of every 2F1 series of L, and of the h series of quad's mode "h"
_SERIES_TOL = 1e-11


@dataclass(frozen=True)
class WeightEval:
    """One weight evaluation: slope, factor matrix, assembled matrix, constants."""

    u: float
    L: np.ndarray
    K: np.ndarray
    d1: float
    d2: float

    @property
    def det_k(self) -> float:
        """det K = d1 d2 (det L)^2, K being a congruence of diag(d1, d2).

        K's own entries grow like 1 / (1 - u^2) toward the sector edge and
        cancel in K11 K22 - K12 K21; L's do not."""
        (l11, l12), (l21, l22) = self.L.tolist()
        return self.d1 * self.d2 * (l11 * l22 - l12 * l21) ** 2


def c_norm(p: ParamPoint) -> float:
    """The normalization constant cos(pi k0) cos(pi k1) / (2 pi)."""
    if not p.integrable:
        raise RegionError(f"normalization needs |k0|, |k1| < 1/2; got {p}")
    return math.cos(math.pi * p.k0) * math.cos(math.pi * p.k1) / (2.0 * math.pi)


@functools.lru_cache(maxsize=8)
def d_consts(p: ParamPoint) -> tuple[float, float]:
    """The two diagonal constants entering K = L^T diag(d1, d2) L, kept for
    the last eight points, whose pairings and weight evaluations all use them."""
    if not p.positive_definite:
        raise RegionError(f"diagonal constants need the positive-definite region; got {p}")
    c = c_norm(p)
    k0, k1 = p.k0, p.k1
    cos0 = math.cos(math.pi * k0)
    d1 = c * gamma_fn(0.5 - k1) ** 2 / (
        cos0 * gamma_fn(0.5 + k0 - k1) * gamma_fn(0.5 - k0 - k1)
    )
    d2 = c * gamma_fn(0.5 + k1) ** 2 / (
        cos0 * gamma_fn(0.5 + k0 + k1) * gamma_fn(0.5 - k0 + k1)
    )
    return d1, d2


def eval_L(u: float, p: ParamPoint, u_sq_complement: float | None = None) -> np.ndarray:
    """The four hypergeometric entries of L(u) on the open slope range (0, 1),
    their series summed to ``_SERIES_TOL``.

    ``u_sq_complement`` may pass 1 - u^2 computed to better accuracy than the
    subtraction (useful when u is extremely close to 1).
    """
    if u_sq_complement is None:
        if not 0.0 < u < 1.0:
            raise RegionError(f"eval_L requires 0 < u < 1, got u = {u}")
        u_sq_complement = 1.0 - u * u
    ell, _ = _eval_L_bounded(np.array([float(u)]), np.array([float(u_sq_complement)]), p)
    return ell[:, :, 0]


def _eval_L_bounded(u: np.ndarray, w: np.ndarray, p: ParamPoint) -> tuple[np.ndarray, np.ndarray]:
    """``eval_L`` at every slope of an array, with a bound on the error of each entry.

    ``w`` holds 1 - u^2 and is authoritative: u itself may have rounded to 1.0
    when the slope is within machine epsilon of the sector edge.  Returns the
    entries and their bounds, both of shape (2, 2, len(u)).  All four entries'
    2F1 series are summed in one batch, also at k0 = 0, where L is diagonal.

    Each bound is the certified tail bound of the entry's 2F1 value times its
    prefactor, plus a rounding term for the prefactors: exp(+-k1 log u) and
    exp(-k0 log(1 - u^2)) lose about 2 |k1 log u| and 2 |k0 log(1 - u^2)|
    ulps, and forming each entry a few more.  The logarithms and exponentials
    are taken per slope with ``math``, whose accuracy that term assumes.
    Near the sector edge each entry's series carries the factor
    (1 - u^2)^(c - a - b), and the rounding of the 2F1 parameters formed from
    k0 and k1 moves c - a - b by less than 2 (1 + |k0| + |k1|) eps; that
    factor turns it into a relative error |log(1 - u^2)| times as large.
    """
    slopes, complements = u.tolist(), w.tolist()
    if not (all(0.0 < x <= 1.0 for x in slopes) and all(0.0 < y <= 1.0 for y in complements)):
        raise RegionError("eval_L requires 0 < u <= 1 with 0 < 1-u^2 <= 1")
    if not p.integrable:
        raise RegionError(f"eval_L needs the integrable region; got {p}")
    k0, k1 = p.k0, p.k1
    # per slope, the prefactors of L11, L12, L21 and L22 and the relative
    # rounding, each rounding as the same operations on arrays would
    # 0.0 - x is -x for x != 0, and +0.0 for x = +-0.0: at k0 = 0 L is diagonal
    c12, c21 = 0.0 - k0 / (k1 + 0.5), 0.0 - k0 / (0.5 - k1)
    scale = 2.0 * (1.0 + 2.0 * abs(k0) + abs(k1))
    rows = []
    for x, y in zip(slopes, complements):
        log_u = math.log(x) if y >= 0.5 else 0.5 * math.log1p(-y)
        log_w = math.log(y)
        up, um, pref = math.exp(k1 * log_u), math.exp(-k1 * log_u), math.exp(-k0 * log_w)
        rel = (2.0 * abs(k1 * log_u) + scale * abs(log_w) + 16.0) * _EPS
        rows.append((up * pref, c12 * up * pref * x, c21 * um * pref * x, um * pref, rel))
    table = np.array(rows).reshape(-1, 5).T
    pref, rel = table[:4], table[4]

    params = [(-k0, 0.5 - k0 + k1, k1 + 0.5), (-k0, 0.5 - k0 - k1, 0.5 - k1),
              (1 - k0, 0.5 - k0 + k1, k1 + 1.5), (1 - k0, 0.5 - k0 - k1, 1.5 - k1)]
    # _gauss_2f1_rows takes 1 - w for u^2 where w < 1/2; every triple at every slope
    series = _gauss_2f1_rows(params, [u * u] * 4, [w] * 4, _SERIES_TOL)
    (f11, t11, _), (f22, t22, _), (f12, t12, _), (f21, t21, _) = series
    ell = pref * np.array([f11, f12, f21, f22])
    err = np.abs(pref) * np.array([t11, t12, t21, t22]) + rel * np.abs(ell)
    return ell.reshape(2, 2, -1), err.reshape(2, 2, -1)


def eval_K(theta: float, p: ParamPoint) -> WeightEval:
    """Assemble the weight matrix at the circle point with angle theta.

    L's series are summed to ``_SERIES_TOL``, also near the sector edge where
    their c - a - b = 2 k0 is nearly an integer (k0 near 0).
    """
    if not 0.0 < theta < _HALF_SECTOR:
        raise RegionError(f"eval_K requires 0 < theta < pi/4, got {theta}")
    u = math.tan(theta)
    # cos(2 theta) / cos(theta)^2 keeps 1 - u^2 accurate near the sector edge
    complement = math.cos(2.0 * theta) / math.cos(theta) ** 2
    ell = eval_L(u, p, u_sq_complement=complement)
    d1, d2 = d_consts(p)
    kmat = ell.T @ np.diag([d1, d2]) @ ell
    return WeightEval(u=u, L=ell, K=kmat, d1=d1, d2=d2)


def det_k_closed_form(p: ParamPoint) -> float:
    """cos(pi (k0+k1)) cos(pi (k0-k1)) / (4 pi^2), constant over the sector."""
    return (
        math.cos(math.pi * (p.k0 + p.k1))
        * math.cos(math.pi * (p.k0 - p.k1))
        / (4.0 * math.pi**2)
    )
