"""Per-point flow descriptors and fixed-length sample assembly.

Each tracked point contributes 12 components per flow step:
[x, y, t, I_t, u, v, u_t, v_t, Div, Vor, G_ten, S_ten]. A classification
window yields one sample of length 12*N by averaging each point slot's
descriptors over the steps where the point stayed tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lkflow import Tracks

DESCRIPTOR_DIM = 12


@dataclass(frozen=True)
class PointDescriptor:
    x: float
    y: float
    t: float
    i_t: float
    u: float
    v: float
    u_t: float
    v_t: float
    div: float
    vor: float
    g_ten: float
    s_ten: float

    def to_array(self) -> np.ndarray:
        return np.array([
            self.x, self.y, self.t, self.i_t, self.u, self.v,
            self.u_t, self.v_t, self.div, self.vor, self.g_ten, self.s_ten,
        ])


@dataclass(frozen=True)
class FlowJacobian:
    """Spatial flow partials, each a float or a per-point array."""

    ux: float | np.ndarray
    uy: float | np.ndarray
    vx: float | np.ndarray
    vy: float | np.ndarray


@dataclass(frozen=True)
class SampleVector:
    values: np.ndarray  # length 12*N
    label: Optional[str] = None


def flow_velocity(tracks: Tracks, frame_step: int = 3) -> np.ndarray:
    """(P, 2) flow velocities in pixels per frame; NaN where the point was
    not TRACKED."""
    if frame_step < 1:
        raise ValueError("frame_step must be >= 1")
    return np.where(tracks.tracked[:, None], tracks.dxy / frame_step, np.nan)


def temporal_derivatives(
    prev_uv: tuple[float, float] | None,
    cur_uv: tuple[float, float],
    i_prev: float,
    i_cur: float,
    frame_step: int,
) -> tuple[float, float, float]:
    """(I_t, u_t, v_t); the first step of a window has no history so the
    velocity derivatives are zero there."""
    i_t = (i_cur - i_prev) / frame_step
    if prev_uv is None:
        return i_t, 0.0, 0.0
    return (
        i_t,
        (cur_uv[0] - prev_uv[0]) / frame_step,
        (cur_uv[1] - prev_uv[1]) / frame_step,
    )


def jacobian_probes(xy: np.ndarray, h: float = 2.0) -> np.ndarray:
    """(P, 5, 2) points whose flow ``flow_jacobian`` reads: each point of
    ``xy`` itself, then its probes at +x, -x, +y and -y, h away."""
    steps = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return xy[:, None, :] + h * steps


def flow_jacobian(
    uv: np.ndarray, h: float = 2.0
) -> tuple[FlowJacobian, np.ndarray]:
    """Spatial flow partials of P points from the (P, 5, 2) velocities at
    their ``jacobian_probes`` (NaN where a probe was not tracked).

    Each axis takes the central difference of its probes at p +- h, or the
    one-sided difference against the point itself when one of them failed.
    Returns the Jacobian, one (P,) array per partial, and the (P,) mask of
    points whose neighbourhood was trackable; the partials of the other
    points are zero.
    """
    tracked = ~np.isnan(uv).any(axis=2)
    centre = uv[:, 0]

    def axis_diff(k: int) -> tuple[np.ndarray, np.ndarray]:
        fwd, bwd = uv[:, k], uv[:, k + 1]
        has_fwd, has_bwd = tracked[:, k], tracked[:, k + 1]
        both = (has_fwd & has_bwd)[:, None]
        one_sided = np.where(
            has_fwd[:, None], (fwd - centre) / h, -(bwd - centre) / h
        )
        diff = np.where(both, (fwd - bwd) / (2 * h), one_sided)
        usable = (has_fwd & has_bwd) | ((has_fwd | has_bwd) & tracked[:, 0])
        return diff, usable

    dx, x_ok = axis_diff(1)
    dy, y_ok = axis_diff(3)
    ok = x_ok & y_ok
    dx = np.where(ok[:, None], dx, 0.0)
    dy = np.where(ok[:, None], dy, 0.0)
    return FlowJacobian(ux=dx[:, 0], uy=dy[:, 0], vx=dx[:, 1], vy=dy[:, 1]), ok


def flow_invariants(j: FlowJacobian) -> tuple[float, float, float, float]:
    """(Div, Vor, G_ten, S_ten): trace, curl, and the second invariants of
    the full Jacobian and of its symmetric part."""
    div = j.ux + j.vy
    vor = j.vx - j.uy
    # second invariant 0.5*((tr J)^2 - tr(J^2)) = det for 2x2
    g_ten = j.ux * j.vy - j.uy * j.vx
    sxy = 0.5 * (j.uy + j.vx)
    s_ten = j.ux * j.vy - sxy * sxy
    return div, vor, g_ten, s_ten


def assemble_descriptor(
    x: float,
    y: float,
    frame_width: int,
    frame_height: int,
    step_index: int,
    steps_per_window: int,
    i_t: float,
    uv: tuple[float, float],
    ut_vt: tuple[float, float],
    invariants: tuple[float, float, float, float],
) -> PointDescriptor:
    t = 0.0 if steps_per_window <= 1 else step_index / (steps_per_window - 1)
    return PointDescriptor(
        x=x / frame_width,
        y=y / frame_height,
        t=t,
        i_t=i_t,
        u=uv[0],
        v=uv[1],
        u_t=ut_vt[0],
        v_t=ut_vt[1],
        div=invariants[0],
        vor=invariants[1],
        g_ten=invariants[2],
        s_ten=invariants[3],
    )


def aggregate_sample(
    slot_descriptors: Sequence[Sequence[PointDescriptor]],
    n_slots: int,
    steps_per_window: int,
    label: Optional[str] = None,
) -> SampleVector:
    """Mean descriptor per point slot, zero-padded to exactly n_slots slots.

    ``slot_descriptors[k]`` holds the descriptors of detection-rank-k point
    for the steps where it stayed tracked; a slot tracked for half the steps
    or fewer is zeroed.
    """
    if steps_per_window < 1:
        raise ValueError("window must contain at least one flow step")
    values = np.zeros(n_slots * DESCRIPTOR_DIM)
    for k, descs in enumerate(slot_descriptors[:n_slots]):
        if 2 * len(descs) <= steps_per_window:
            continue
        stack = np.stack([d.to_array() for d in descs])
        values[k * DESCRIPTOR_DIM : (k + 1) * DESCRIPTOR_DIM] = stack.mean(axis=0)
    return SampleVector(values=values, label=label)
