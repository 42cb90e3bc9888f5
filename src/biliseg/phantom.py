"""Synthetic branching-tube phantoms with exact ground-truth masks.

A phantom is a centerline tree of cylindrical segments (mm coordinates)
rasterized onto a voxel grid: a voxel is foreground iff its center lies
within a segment's radius of that segment (ties count as foreground). A
two-class Gaussian intensity model turns the mask into an image.

Randomness comes from the counter-based Philox generator seeded through
``numpy.random.SeedSequence(rng_seed)``; child streams 0 and 1 drive tree
growth and intensity noise, so every phantom is reproducible from its
parameters alone.
"""
from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import Mask, Spacing, Volume
from .errors import ConfigError, DegenerateInputError

# Size caps, checked before anything is allocated: the tree can reach
# 2**(max_depth + 1) - 1 segments when it may branch (max_depth + 1 when it
# cannot), and the volume holds prod(dims) voxels.
MAX_SEGMENTS = 4095           # a binary tree of depth 11
MAX_VOXELS = 256 * 256 * 256


@dataclass(frozen=True)
class PhantomParams:
    dims: tuple[int, int, int]
    spacing: Spacing
    root: tuple[float, float, float]
    root_direction: tuple[float, float, float]
    segment_length: float
    radius_root: float
    radius_taper: float = 0.8
    branch_probability: float = 0.3
    branch_angle: float = 30.0
    max_depth: int = 4
    fg_mean: float = 200.0
    bg_mean: float = 10.0
    noise_std: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) != 3 or min(dims) < 1:
            raise ConfigError(f"dims must be three positive integers, got {self.dims}")
        if math.prod(dims) > MAX_VOXELS:
            raise ConfigError(f"dims {list(dims)} exceed the cap of {MAX_VOXELS} voxels")
        object.__setattr__(self, "dims", dims)
        if not isinstance(self.spacing, Spacing):
            object.__setattr__(self, "spacing", Spacing(*self.spacing))
        if not np.any(self.root_direction):
            raise ConfigError("root_direction must be a nonzero vector")
        if self.segment_length <= 0:
            raise ConfigError(f"segment_length must be > 0, got {self.segment_length}")
        if self.radius_root < max(self.spacing.as_tuple()) / 2.0:
            raise ConfigError(
                f"radius_root {self.radius_root} is below half the largest voxel size; "
                "the tube would not be resolvable"
            )
        if not 0.0 < self.radius_taper <= 1.0:
            raise ConfigError(f"radius_taper must be in (0, 1], got {self.radius_taper}")
        if not 0.0 <= self.branch_probability <= 1.0:
            raise ConfigError(f"branch_probability must be in [0, 1], got {self.branch_probability}")
        if self.branch_angle < 0:
            raise ConfigError(f"branch_angle must be >= 0 degrees, got {self.branch_angle}")
        # -0.0 passes the check, but as the upper bound of rng.uniform(0.0, .) it is below 0.0
        object.__setattr__(self, "branch_angle", abs(self.branch_angle))
        if self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        branching = self.branch_probability > 0
        # 2**64 - 1 is over the cap already, so a deeper tree need not be counted
        worst = 2 ** min(self.max_depth + 1, 64) - 1 if branching else self.max_depth + 1
        if worst > MAX_SEGMENTS:
            raise ConfigError(f"max_depth {self.max_depth} allows up to "
                              f"{'2^(max_depth+1)-1' if branching else 'max_depth+1'} segments, "
                              f"over the cap of {MAX_SEGMENTS}")
        # no tree coordinate is larger than this in magnitude
        if max(map(abs, self.root)) + (self.max_depth + 1) * self.segment_length > sys.float_info.max:
            raise ConfigError(f"segment_length {self.segment_length} over {self.max_depth + 1} "
                              "segments takes the tree past the largest float")
        if not self.fg_mean > self.bg_mean:
            raise ConfigError(f"need fg_mean > bg_mean, got ({self.fg_mean}, {self.bg_mean})")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")


@dataclass(frozen=True)
class TubeSegment:
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    radius: float
    parent: int  # index of the parent segment, -1 for the root


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    tree_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return (np.random.Generator(np.random.Philox(tree_ss)),
            np.random.Generator(np.random.Philox(noise_ss)))


def _perp_basis(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(d, helper)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    return u, v


def generate_tree(params: PhantomParams) -> tuple[TubeSegment, ...]:
    """Grow a centerline tree, breadth first, as its segments in that order.

    The root segment has depth 0. At the end of every segment with depth
    below ``max_depth`` the tree either bifurcates (probability
    ``branch_probability``, opening +-``branch_angle`` degrees, child radius
    tapered) or continues straight with a small angular jitter (tilt drawn
    uniformly from [0, branch_angle/4] degrees, radius kept).
    """
    rng, _ = _streams(params.rng_seed)
    direction = np.asarray(params.root_direction, dtype=np.float64)
    # scaling by a power of two is exact and keeps |direction|**2 finite and nonzero
    direction = np.ldexp(direction, -np.frexp(np.abs(direction).max())[1])
    direction = direction / np.linalg.norm(direction)
    theta = math.radians(params.branch_angle)

    segments: list[TubeSegment] = []
    queue = deque([(np.asarray(params.root, dtype=np.float64), direction, params.radius_root, 0, -1)])
    while queue:
        start, d, radius, depth, parent = queue.popleft()
        end = start + d * params.segment_length
        idx = len(segments)
        segments.append(TubeSegment(tuple(start), tuple(end), radius, parent))
        if depth >= params.max_depth:
            continue
        u, v = _perp_basis(d)
        if rng.random() < params.branch_probability:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lateral = math.cos(phi) * u + math.sin(phi) * v
            child_r = radius * params.radius_taper
            for side in (1.0, -1.0):
                child_d = math.cos(theta) * d + side * math.sin(theta) * lateral
                child_d = child_d / np.linalg.norm(child_d)
                queue.append((end, child_d, child_r, depth + 1, idx))
        else:
            tilt = rng.uniform(0.0, theta / 4.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            lateral = math.cos(phi) * u + math.sin(phi) * v
            next_d = math.cos(tilt) * d + math.sin(tilt) * lateral
            next_d = next_d / np.linalg.norm(next_d)
            queue.append((end, next_d, radius, depth + 1, idx))
    return tuple(segments)


def rasterize_tree(tree: tuple[TubeSegment, ...], dims, spacing: Spacing) -> Mask:
    """Exact rasterization: voxel centers within a segment's radius of its
    centerline (point-to-segment distance in mm, no anti-aliasing)."""
    if not tree:
        raise DegenerateInputError("cannot rasterize an empty tree")
    dims = tuple(int(n) for n in dims)
    sp = np.array(spacing.as_tuple())
    fg = np.zeros(dims, dtype=bool)

    for seg in tree:
        a = np.asarray(seg.start, dtype=np.float64)
        b = np.asarray(seg.end, dtype=np.float64)
        r = float(seg.radius)
        lo = np.minimum(a, b) - r
        hi = np.maximum(a, b) + r
        # a bound near the float limit over a voxel size below 1 mm divides to
        # +-inf, which is harmless: the test and the clamp below handle it
        with np.errstate(over="ignore"):
            i0 = np.floor(lo / sp) - 1
            i1 = np.ceil(hi / sp) + 1
        if (i1 < 0).any() or (i0 > np.array(dims) - 1).any():
            continue
        # clamp while still float: a huge radius would overflow the int cast
        i0 = np.maximum(i0, 0).astype(np.int64)
        i1 = np.minimum(i1, np.array(dims) - 1).astype(np.int64)

        px = (np.arange(i0[0], i1[0] + 1) * sp[0])[:, None, None]
        py = (np.arange(i0[1], i1[1] + 1) * sp[1])[None, :, None]
        pz = (np.arange(i0[2], i1[2] + 1) * sp[2])[None, None, :]
        ab = b - a
        # t is the same, bit for bit, with ab scaled down by a power of two and
        # t scaled back, and then |ab|**2 cannot overflow however long ab is
        e = max(np.frexp(np.abs(ab).max())[1], 0)
        unit = np.ldexp(ab, -e)
        length2 = float(unit @ unit)
        if length2 == 0.0:
            d2 = (px - a[0]) ** 2 + (py - a[1]) ** 2 + (pz - a[2]) ** 2
        else:
            t = ((px - a[0]) * unit[0] + (py - a[1]) * unit[1] + (pz - a[2]) * unit[2]) / length2
            t = np.clip(np.ldexp(t, -e, out=t), 0.0, 1.0, out=t)
            d2 = ((px - (a[0] + t * ab[0])) ** 2
                  + (py - (a[1] + t * ab[1])) ** 2
                  + (pz - (a[2] + t * ab[2])) ** 2)
        sub = (slice(i0[0], i1[0] + 1), slice(i0[1], i1[1] + 1), slice(i0[2], i1[2] + 1))
        fg[sub] |= d2 <= r * r

    if not fg.any():
        raise DegenerateInputError("the tree lies entirely outside the grid")
    return Mask(fg, spacing)


def render_intensities(gt: Mask, params: PhantomParams) -> Volume:
    """Two-class Gaussian image: foreground Normal(fg_mean, noise_std),
    background Normal(bg_mean, noise_std), clamped to [0, 255]."""
    _, rng = _streams(params.rng_seed)
    fg, bg = float(params.fg_mean), float(params.bg_mean)
    if params.noise_std > 0:
        # the noise scaled and shifted in place, one x-slab of the C-ordered
        # draw at a time: z * noise_std + mean is mean + noise_std * z bit for
        # bit, since IEEE addition and multiplication commute
        out = rng.standard_normal(gt.dims)
        # a value past the float range becomes +-inf, which the clip maps to
        # 255 or 0 like any other value out of range
        with np.errstate(over="ignore"):
            out *= params.noise_std
            for noise, inside in zip(out, gt.data):
                noise += np.where(inside, fg, bg)
    else:
        # not 0.0 + bg_mean, which would turn a bg_mean of -0.0 into +0.0
        out = np.where(gt.data, fg, bg)
    return Volume(np.clip(out, 0.0, 255.0, out=out).astype(np.float32), gt.spacing)
