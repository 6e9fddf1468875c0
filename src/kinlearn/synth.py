"""Synthetic articulated-object demonstrations with ground truth.

Replaces a camera front-end: each object part carries features sampled on
a planar face, transported rigidly by the part's per-frame pose. Gaussian
position noise, axis-angle normal perturbation, per-frame dropout and
track death/rebirth emulate sensor and tracker behavior. Generation is
seed-deterministic.

Conventions: part body frames coincide with the world frame at frame 0
(every motion profile starts at configuration 0), so joint axes and
origins in an ObjectSpec are world coordinates at the initial
configuration, and that is also how they are recorded in ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidSpec
from .geometry import Pose, apply_pose, compose, quat_from_rotvec, quat_rotate
from .trajectories import (
    JOINT_KINDS,
    PRISMATIC,
    REVOLUTE,
    RIGID,
    Demonstration,
    FeatureTrajectory,
    GroundTruth,
    GroundTruthJoint,
)

__all__ = [
    "MotionProfile",
    "PartSpec",
    "JointSpec",
    "ObjectSpec",
    "generate",
    "default_specs",
]

PROFILE_SHAPES = ("ramp", "smoothstep", "sinusoid")


@dataclass(frozen=True)
class MotionProfile:
    """Scalar configuration q as a function of normalized time s in [0, 1].

    All shapes start at q(0) = 0; ``extent`` is the peak value (radians for
    revolute, meters for prismatic).
    """

    shape: str
    extent: float

    def __post_init__(self):
        if self.shape not in PROFILE_SHAPES:
            raise InvalidSpec(f"unknown motion profile {self.shape!r}")

    def value(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.shape == "ramp":
            y = s
        elif self.shape == "smoothstep":
            y = s * s * (3.0 - 2.0 * s)
        else:  # sinusoid
            y = np.sin(np.pi * s)
        return self.extent * y


@dataclass(frozen=True)
class PartSpec:
    """Planar feature patch: center plus two in-plane half-extent vectors.

    Features are sampled as center + a*u + b*v with a, b uniform in
    [-1, 1]; the (constant, body-frame) surface normal is unit(u x v).
    """

    center: tuple[float, float, float]
    u: tuple[float, float, float]
    v: tuple[float, float, float]

    def normal(self) -> np.ndarray:
        n = np.cross(self.u, self.v)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise InvalidSpec("part face vectors are parallel")
        return n / norm


@dataclass(frozen=True)
class JointSpec:
    parent: int
    child: int
    kind: str
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    profile: MotionProfile = MotionProfile("ramp", 0.0)

    def transform(self, q: np.ndarray) -> Pose:
        """Child poses in the parent's frame, one per configuration (rigid: identities)."""
        if self.kind == REVOLUTE:
            return Pose.rot_about_line(self.axis, self.origin, q)
        identity = Pose.stack([Pose.identity()] * len(q))
        if self.kind == PRISMATIC:
            return Pose(identity.q, q[:, None] * np.asarray(self.axis, dtype=float))
        return identity


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    parts: tuple[PartSpec, ...]
    joints: tuple[JointSpec, ...]
    features_per_part: int = 20
    noise_sigma_pos: float = 0.0  # meters
    noise_sigma_normal: float = 0.0  # radians
    dropout_prob: float = 0.0  # per-frame observation loss
    track_lifetime: float = math.inf  # mean frames before rebirth

    def with_noise(self, sigma_pos=None, sigma_normal=None, dropout=None) -> "ObjectSpec":
        kw = {}
        if sigma_pos is not None:
            kw["noise_sigma_pos"] = sigma_pos
        if sigma_normal is not None:
            kw["noise_sigma_normal"] = sigma_normal
        if dropout is not None:
            kw["dropout_prob"] = dropout
        return replace(self, **kw)


def _validate(spec: ObjectSpec, frames: int) -> list[JointSpec]:
    """Reject a malformed spec; return its joints in parent-first order."""
    k = len(spec.parts)
    if k < 1:
        raise InvalidSpec("object needs at least one part")
    if frames < 10:
        raise InvalidSpec(f"frames must be >= 10, got {frames}")
    if spec.features_per_part < 3:
        raise InvalidSpec("features_per_part must be >= 3")
    sigmas = f"{spec.noise_sigma_pos} m and {spec.noise_sigma_normal} rad"
    if spec.noise_sigma_pos < 0 or spec.noise_sigma_normal < 0:
        raise InvalidSpec(f"noise sigmas must be >= 0, got {sigmas}")
    if not (math.isfinite(spec.noise_sigma_pos) and math.isfinite(spec.noise_sigma_normal)):
        raise InvalidSpec(f"noise sigmas must be finite, got {sigmas}")
    if not 0 <= spec.dropout_prob < 1:
        raise InvalidSpec(f"dropout_prob must lie in [0, 1), got {spec.dropout_prob}")
    if len(spec.joints) != k - 1:
        raise InvalidSpec(f"{k} parts need {k - 1} joints, got {len(spec.joints)}")
    seen_children = set()
    for j in spec.joints:
        if j.kind not in JOINT_KINDS:
            raise InvalidSpec(f"unknown joint kind {j.kind!r}")
        if not (0 <= j.parent < k and 0 <= j.child < k) or j.parent == j.child:
            raise InvalidSpec(f"joint references invalid parts ({j.parent}, {j.child})")
        if j.child in seen_children or j.child == 0:
            raise InvalidSpec("joints must form a tree rooted at part 0")
        seen_children.add(j.child)
        if j.kind != RIGID and abs(np.linalg.norm(j.axis) - 1.0) > 1e-6:
            raise InvalidSpec(f"joint ({j.parent}, {j.child}): axis is not unit length")
    # walk out from the root; a joint never reached hangs off a cycle
    children = {}
    for j in spec.joints:
        children.setdefault(j.parent, []).append(j)
    order, stack = [], [0]
    while stack:
        for j in children.get(stack.pop(), []):
            order.append(j)
            stack.append(j.child)
    if len(order) != k - 1:
        raise InvalidSpec("joint tree does not reach every part")
    return order


def _part_pose_sequences(joints, frames: int):
    """Per-part stack of poses, one per frame, and per-child configuration
    array, for ``joints`` in parent-first order."""
    s = np.arange(frames) / max(frames - 1, 1)
    poses = {0: Pose.stack([Pose.identity()] * frames)}
    q_of_child = {}
    for j in joints:
        qs = q_of_child[j.child] = j.profile.value(s)
        poses[j.child] = compose(poses[j.parent], j.transform(qs))
    return poses, q_of_child


def _add_noise(spec: ObjectSpec, rng, pos: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """Add one track's noise to ``pos`` and ``nrm`` in place; return its
    kept-frame mask. The draws go frame by frame (position noise, normal
    tilt, dropout), the order that fixes the sample stream for a seed."""
    kept = np.ones(len(pos), dtype=bool)
    for k in range(len(pos)):
        if spec.noise_sigma_pos > 0:
            pos[k] += rng.normal(0.0, spec.noise_sigma_pos, size=3)
        if spec.noise_sigma_normal > 0:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = abs(rng.normal(0.0, spec.noise_sigma_normal))
            nrm[k] = quat_rotate(quat_from_rotvec(axis * angle), nrm[k])
        kept[k] = not (spec.dropout_prob > 0 and rng.uniform() < spec.dropout_prob)
    return kept


def generate(spec: ObjectSpec, frames: int, seed: int) -> Demonstration:
    """Deterministic synthetic demonstration for ``spec``.

    Each part carries ``features_per_part`` concurrently tracked features;
    a dying track is replaced by a fresh one (new id, new surface point)
    at the death frame. Tracks left with fewer than 2 observations are
    removed entirely.
    """
    rng = np.random.default_rng(seed)
    part_poses, q_of_child = _part_pose_sequences(_validate(spec, frames), frames)

    # renewal chains: one per (part, feature slot)
    tracks = []  # (id, part, body_pos, body_normal, start, stop)
    for part_idx, part in enumerate(spec.parts):
        normal = part.normal()
        u = np.asarray(part.u, dtype=float)
        v = np.asarray(part.v, dtype=float)
        c = np.asarray(part.center, dtype=float)
        for _slot in range(spec.features_per_part):
            start = 0
            while start < frames:
                a, b = rng.uniform(-1.0, 1.0, size=2)
                if math.isfinite(spec.track_lifetime) and spec.track_lifetime > 0:
                    life = int(rng.geometric(1.0 / spec.track_lifetime))
                else:
                    life = frames
                stop = min(start + max(life, 1), frames)
                tracks.append((len(tracks), part_idx, c + a * u + b * v, normal, start, stop))
                start = stop

    noisy = spec.noise_sigma_pos > 0 or spec.noise_sigma_normal > 0 or spec.dropout_prob > 0
    trajectories = []
    labels = {}
    for tid, part_idx, body_pos, body_normal, start, stop in tracks:
        poses = part_poses[part_idx][start:stop]
        pos = apply_pose(poses, body_pos)
        nrm = quat_rotate(poses.q, body_normal)
        kept = _add_noise(spec, rng, pos, nrm) if noisy else np.ones(len(pos), dtype=bool)
        if kept.sum() < 2:
            continue
        observed = np.arange(start, stop)[kept]
        trajectories.append(FeatureTrajectory.from_arrays(tid, observed, pos[kept], nrm[kept]))
        labels[tid] = part_idx

    gt_joints = [
        GroundTruthJoint(
            j.parent,
            j.child,
            j.kind,
            np.asarray(j.axis if j.kind != RIGID else (0.0, 0.0, 0.0), dtype=float),
            np.asarray(j.origin, dtype=float),
            np.asarray(q_of_child[j.child]),
        )
        for j in spec.joints
    ]
    gt = GroundTruth(labels, part_poses, gt_joints)
    return Demonstration(trajectories, frame_rate=30.0, ground_truth=gt)


def default_specs() -> dict[str, ObjectSpec]:
    """Catalog of household-object specs (door, drawer, fridge, laptop,
    microwave, chair, monitor).

    The chair is modeled as a revolute seat swiveling on a rigid base (its
    real-world base motion on the floor is out of scope). The monitor is a
    2-DOF serial chain: arm panning about a vertical axis, screen tilting
    about a horizontal one.

    Geometry is tuned so that every cross-part feature pair shows a large
    relative-distance variation over the demonstration: patches stay well
    clear of rotation axes (near-axis features are genuinely ambiguous to
    a distance-based kernel) and part extents are kept compact so no pair
    is so far apart that articulated motion barely changes its distance.
    """
    deg = np.deg2rad
    specs = {
        "door": ObjectSpec(
            name="door",
            parts=(
                PartSpec(center=(-0.5, 0.0, 1.0), u=(0.2, 0.0, 0.0), v=(0.0, 0.0, 0.35)),
                PartSpec(center=(0.5, 0.0, 1.0), u=(0.3, 0.0, 0.0), v=(0.0, 0.0, 0.35)),
            ),
            joints=(
                JointSpec(0, 1, REVOLUTE, axis=(0.0, 0.0, 1.0), origin=(0.0, 0.0, 0.0),
                          profile=MotionProfile("smoothstep", deg(90.0))),
            ),
        ),
        "drawer": ObjectSpec(
            name="drawer",
            parts=(
                PartSpec(center=(0.0, 0.0, 0.5), u=(0.14, 0.0, 0.0), v=(0.0, 0.0, 0.1)),
                PartSpec(center=(0.0, 0.05, 0.5), u=(0.14, 0.0, 0.0), v=(0.0, 0.0, 0.07)),
            ),
            joints=(
                JointSpec(0, 1, PRISMATIC, axis=(0.0, 1.0, 0.0),
                          profile=MotionProfile("ramp", 0.4)),
            ),
        ),
        "fridge": ObjectSpec(
            name="fridge",
            parts=(
                PartSpec(center=(-0.55, 0.0, 0.9), u=(0.2, 0.0, 0.0), v=(0.0, 0.0, 0.4)),
                PartSpec(center=(0.55, 0.0, 0.9), u=(0.3, 0.0, 0.0), v=(0.0, 0.0, 0.4)),
            ),
            joints=(
                JointSpec(0, 1, REVOLUTE, axis=(0.0, 0.0, 1.0), origin=(0.0, 0.0, 0.0),
                          profile=MotionProfile("ramp", deg(120.0))),
            ),
        ),
        "laptop": ObjectSpec(
            name="laptop",
            parts=(
                PartSpec(center=(0.0, 0.14, 0.0), u=(0.16, 0.0, 0.0), v=(0.0, 0.1, 0.0)),
                PartSpec(center=(0.0, -0.22, 0.0), u=(0.16, 0.0, 0.0), v=(0.0, 0.085, 0.0)),
            ),
            joints=(
                JointSpec(0, 1, REVOLUTE, axis=(1.0, 0.0, 0.0), origin=(0.0, 0.0, 0.0),
                          profile=MotionProfile("smoothstep", deg(100.0))),
            ),
        ),
        "microwave": ObjectSpec(
            name="microwave",
            parts=(
                PartSpec(center=(0.0, 0.0, 0.25), u=(0.28, 0.0, 0.0), v=(0.0, 0.0, 0.2)),
                PartSpec(center=(0.0, 0.05, 0.25), u=(0.24, 0.0, 0.0), v=(0.0, 0.0, 0.18)),
            ),
            joints=(
                JointSpec(0, 1, REVOLUTE, axis=(0.0, 0.0, 1.0), origin=(-0.4, 0.05, 0.0),
                          profile=MotionProfile("smoothstep", deg(100.0))),
            ),
        ),
        "chair": ObjectSpec(
            name="chair",
            parts=(
                PartSpec(center=(-0.35, 0.0, 0.1), u=(0.08, 0.0, 0.0), v=(0.0, 0.2, 0.0)),
                PartSpec(center=(0.25, 0.0, 0.5), u=(0.1, 0.0, 0.0), v=(0.0, 0.15, 0.0)),
            ),
            joints=(
                JointSpec(0, 1, REVOLUTE, axis=(0.0, 0.0, 1.0), origin=(0.0, 0.0, 0.0),
                          profile=MotionProfile("sinusoid", deg(160.0))),
            ),
        ),
        "monitor": ObjectSpec(
            name="monitor",
            parts=(
                PartSpec(center=(-0.35, 0.0, 0.05), u=(0.1, 0.0, 0.0), v=(0.0, 0.15, 0.0)),
                PartSpec(center=(0.3, 0.0, 0.24), u=(0.05, 0.0, 0.0), v=(0.0, 0.0, 0.14)),
                PartSpec(center=(0.3, 0.0, 0.85), u=(0.2, 0.0, 0.0), v=(0.0, 0.0, 0.15)),
            ),
            joints=(
                JointSpec(0, 1, REVOLUTE, axis=(0.0, 0.0, 1.0), origin=(0.0, 0.0, 0.0),
                          profile=MotionProfile("smoothstep", deg(110.0))),
                JointSpec(1, 2, REVOLUTE, axis=(1.0, 0.0, 0.0), origin=(0.3, 0.0, 0.55),
                          profile=MotionProfile("sinusoid", deg(80.0))),
            ),
        ),
    }
    return specs
