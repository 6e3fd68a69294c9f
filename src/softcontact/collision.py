"""Soft collision detection between two posed AOPCs.

The collision context is an entire separation field: the soft signed
distance of every point of each body against the other body, concatenated
into one vector. Its softmin distribution concentrates mass on the deepest
penetrating points and acts as the soft selection operator for both the
smooth separation distance and the contact force model. All point-against-
cloud interactions are always evaluated (no culling); this is what keeps the
pipeline smooth and its cost independent of how many contacts are active.

The simulation's contact path (contact._pair_contact) and the gradient
check's state sampler compute the same values and distribution per chunk of
pairs and build no field; separation_field serves collide, the contact
points, the tests' oracles and the public ssdf_ssdf_force.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_temperature, softmax
from .ssdf import _ssdf_blocks
from .ssdf import ssdf  # noqa: F401 (bound here for perfbench/tracer.py)


@dataclass(frozen=True)
class SeparationField:
    """values: stacked soft signed distances, points of body b against body a
    first (I_b entries) and points of a against b second (I_a entries);
    distribution: softmin weights over those entries. For a stack of P
    pairs values and distribution are (P, I_b + I_a)."""

    values: np.ndarray
    distribution: np.ndarray
    eps1: float
    eps2: float

    def __len__(self) -> int:
        return self.values.shape[-1]


def separation_field(a, b, eps1: float, eps2: float) -> SeparationField:
    """Evaluate both directional SSDFs and the softmin distribution.

    a and b are posed WorldAopc's (LocalAopc works for purely geometric
    queries), or two stacks of P posed clouds for P pairs at once. The
    queries run in blocks (ssdf._ssdf_blocks): no (Q, I) array is held.
    """
    check_temperature(eps1, "eps1")
    check_temperature(eps2, "eps2")
    values = np.concatenate([v for c, q in ((a, b), (b, a)) for _, v, _, _ in _ssdf_blocks(c, q.points, eps1)], axis=-1)
    return SeparationField(values, softmax(-values, eps2), float(eps1), float(eps2))


def soft_separation_distance(field: SeparationField):
    """Distribution-weighted average of the separation field: a smooth stand-
    in for the minimum signed distance between the two bodies."""
    return np.sum(field.distribution * field.values, axis=-1)


def vertex_weights(field: SeparationField, a, b) -> np.ndarray:
    """Transfer face probability mass onto the joint vertex set.

    Joint vertex order is a's vertices then b's. Each field entry deposits
    its probability on the 4 corner vertices of the face that owns its query
    point, so the result sums to 4.
    """
    Va, Vb = a.num_vertices, b.num_vertices
    Ib = b.num_points
    z = np.zeros(Va + Vb, dtype=field.distribution.dtype)
    np.add.at(z, Va + np.asarray(b.faces), field.distribution[:Ib, None])
    np.add.at(z, np.asarray(a.faces), field.distribution[Ib:, None])
    return z


def soft_top_k(z: np.ndarray, k: int, tau: float) -> np.ndarray:
    """Iterative masked softmax realization of soft top-K selection.

    Row j is the softmax (temperature tau) of z after suppressing the mass
    already selected by rows < j with a penalty of 1e6 * spread(z). As tau
    shrinks (and the top entries of z are distinct) the rows converge to
    one-hot indicators of the K largest entries in descending order.
    """
    check_temperature(tau, "tau")
    z = np.asarray(z)
    V = z.shape[0]
    if not 1 <= k <= V:
        raise ValueError(f"k must be in 1..{V}, got {k}")
    spread = float(np.max(z.real) - np.min(z.real))
    large = 1e6 * spread
    mask = np.zeros_like(z)
    rows = []
    for _ in range(k):
        row = softmax(z + mask, tau)
        rows.append(row)
        mask = mask - large * row
    return np.stack(rows, axis=0)


@dataclass(frozen=True)
class ContactPointSet:
    """K soft witness points: convex combinations of the joint vertex set.

    selection is the K x (Va + Vb) row-stochastic matrix; vertex_weights the
    transferred face mass each row selected from.
    """

    points: np.ndarray
    selection: np.ndarray
    vertex_weights: np.ndarray


def contact_points(a, b, field: SeparationField, k: int = 8, tau: float = 1e-2) -> ContactPointSet:
    """Reduce the separation field to K discrete contact point candidates.

    K = 8 covers parallel face-face configurations (4 corners from each
    body). The points are convex combinations of world vertices, so they
    always lie inside the joint convex hull.
    """
    z = vertex_weights(field, a, b)
    gamma = soft_top_k(z, k, tau)
    joint = np.concatenate([np.asarray(a.vertices), np.asarray(b.vertices)], axis=0)
    return ContactPointSet(gamma @ joint, gamma, z)


def collision_report_csv(field: SeparationField, a, b, soft_distance: float, hard_distance: float) -> str:
    """Per field entry: the surface owning its query point (1 = a, 2 = b), the point's index there, phi, weight."""
    Ib = b.num_points
    if len(field) != a.num_points + Ib:
        raise ValueError(f"separation field length {len(field)} does not match AOPC pair ({Ib} + {a.num_points} points)")
    lines = ["surface,face,phi,weight"]
    for j, (phi, w) in enumerate(zip(field.values, field.distribution)):
        lines.append("%d,%d,%.17g,%.17g" % ((2, j, phi, w) if j < Ib else (1, j - Ib, phi, w)))
    lines.append("# soft_separation_m=%.17g, hard_separation_m=%.17g" % (soft_distance, hard_distance))
    return "\n".join(lines) + "\n"
