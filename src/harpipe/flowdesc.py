"""Per-point flow descriptors and fixed-length window samples.

Each tracked point contributes 12 components per flow step:
[x, y, t, I_t, u, v, u_t, v_t, Div, Vor, G_ten, S_ten]. A window's sample
of length 12*N is each point slot's mean descriptor over the flow steps where
the point stayed tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DESCRIPTOR_DIM = 12


@dataclass(frozen=True)
class SampleVector:
    values: np.ndarray  # length 12*N
    label: Optional[str] = None


def jacobian_probes(xy: np.ndarray, h: float) -> np.ndarray:
    """(P, 5, 2) points whose flow ``flow_jacobian`` reads: each point of
    ``xy`` itself, then its probes at +x, -x, +y and -y, h away."""
    steps = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return xy[:, None, :] + h * steps


def flow_jacobian(
    uv: np.ndarray, tracked: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spatial flow partials of P tracked points from the (P, 5, 2) velocities
    at their ``jacobian_probes`` and the (P, 5) mask of the probes that were
    tracked, the point itself always; the others' velocities are ignored.

    Each axis takes the central difference of its probes at p +- h, or the
    one-sided difference against the point itself when one of them failed.
    Returns the (P, 2, 2) Jacobians [[u_x, u_y], [v_x, v_y]] and the (P,)
    mask of points with a probe tracked on each axis; the partials of the
    other points are zero.
    """
    centre, fwd, bwd = uv[:, :1], uv[:, 1::2], uv[:, 2::2]  # (P, axis, component)
    has_fwd, has_bwd = tracked[:, 1::2], tracked[:, 2::2]
    one_sided = np.where(has_fwd[..., None], (fwd - centre) / h, -(bwd - centre) / h)
    diff = np.where((has_fwd & has_bwd)[..., None], (fwd - bwd) / (2 * h), one_sided)
    ok = (has_fwd | has_bwd).all(axis=1)
    return np.where(ok[:, None, None], diff.swapaxes(1, 2), 0.0), ok


def flow_invariants(j: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Div, Vor, G_ten, S_ten) of a (..., 2, 2) Jacobian
    [[u_x, u_y], [v_x, v_y]]: trace, curl, and the second invariants of the
    full Jacobian and of its symmetric part."""
    ux, uy = j[..., 0, 0], j[..., 0, 1]
    vx, vy = j[..., 1, 0], j[..., 1, 1]
    div = ux + vy
    vor = vx - uy
    # second invariant 0.5*((tr J)^2 - tr(J^2)) = det for 2x2
    g_ten = ux * vy - uy * vx
    sxy = 0.5 * (uy + vx)
    s_ten = ux * vy - sxy * sxy
    return div, vor, g_ten, s_ten


def point_descriptors(
    xy: np.ndarray,
    frame_size: tuple[int, int],
    step: int,
    steps: int,
    i_t: np.ndarray,
    uv: np.ndarray,
    uv_t: np.ndarray,
    invariants: tuple[np.ndarray, ...],
) -> np.ndarray:
    """(P, 12) descriptors of P points at flow step ``step`` of ``steps``:
    the (P, 2) positions over the (width, height) frame size, the step's
    time in [0, 1], I_t, the (P, 2) velocities and their time derivatives,
    and the four (P,) ``flow_invariants``."""
    t = 0.0 if steps <= 1 else step / (steps - 1)
    return np.column_stack(
        (xy / frame_size, np.full(len(xy), t), i_t, uv, uv_t, *invariants)
    )


def pool_window(sums: np.ndarray, counts: np.ndarray, steps: int) -> np.ndarray:
    """Samples from the (..., slots, 12) sums of each slot's descriptors
    over the steps it was tracked for and the (..., slots) counts of those
    steps, out of ``steps``: each slot's mean, zero for a slot tracked for
    half the steps or fewer, flattened to (..., 12 * slots)."""
    keep = 2 * counts > steps
    values = np.zeros_like(sums)
    values[keep] = sums[keep] / counts[keep, None]
    return values.reshape(*sums.shape[:-2], -1)
