"""Bundled deterministic test images.

Pure functions of normalized pixel coordinates, so the same picture can
be rendered at any power-of-two resolution.  Edges carry a fixed absolute
blur (about 3 pixels at 256x256): below that physical scale the images
are smooth, so their entanglement content saturates with resolution, the
regime the encoding pipeline targets.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .image_codec import ImageGrid

EDGE_WIDTH = 0.012  # edge blur in image units


def _coords(L: int):
    # pixel centers in [0, 1)^2, broadcast: u = row (vertical) as a column, v = column as a row
    c = (np.arange(L) + 0.5) / L
    return c[:, None], c[None, :]


def _soft(signed_distance, w: float = EDGE_WIDTH):
    """Smoothstep mask: 1 well inside (positive distance), 0 well outside."""
    t = np.clip(signed_distance / w + 0.5, 0.0, 1.0)
    return t * t * (3 - 2 * t)


def _paint(img, mask, value):
    return img * (1 - mask) + value * mask


def sign_image(L: int = 256) -> ImageGrid:
    """Octagonal stop-sign shape with a dark band, on a smooth radial background."""
    u, v = _coords(L)
    du, dv = u - 0.5, v - 0.5
    img = 0.15 + 0.25 * np.exp(-4.0 * (du**2 + dv**2))
    octagon = np.maximum(np.maximum(np.abs(du), np.abs(dv)), (np.abs(du) + np.abs(dv)) / np.sqrt(2))
    img = _paint(img, _soft(0.34 - octagon), 0.85)
    img = _paint(img, _soft(0.07 - np.abs(du)) * _soft(0.26 - np.abs(dv)), 0.25)
    return ImageGrid(img)


def scene_image(L: int = 256) -> ImageGrid:
    """Road-scene-like composition: gradient sky, textured ground, road, vehicle, sun."""
    u, v = _coords(L)
    sky = 0.75 - 0.35 * u / 0.45
    ground = 0.35 + 0.08 * np.sin(7 * np.pi * v) * np.sin(3 * np.pi * u)
    m_ground = _soft(u - 0.45)
    img = _paint(sky, m_ground, ground)
    # road: trapezoid widening toward the bottom
    half_width = 0.05 + 0.45 * np.clip(u - 0.45, 0.0, None)
    m_road = _soft(half_width - np.abs(v - 0.5)) * m_ground
    img = _paint(img, m_road, 0.18 + 0.04 * np.sin(11 * np.pi * u))
    # vehicle: bright body with a darker cabin
    m_body = _soft(u - 0.52) * _soft(0.68 - u) * _soft(v - 0.38) * _soft(0.62 - v)
    img = _paint(img, m_body, 0.9)
    m_cabin = _soft(u - 0.54) * _soft(0.60 - u) * _soft(v - 0.42) * _soft(0.58 - v)
    img = _paint(img, m_cabin, 0.45)
    # sun disk in the sky
    m_sun = _soft(0.06 - np.sqrt((u - 0.15) ** 2 + (v - 0.8) ** 2))
    img = _paint(img, m_sun, 1.0)
    return ImageGrid(img)


def digit_image(L: int = 16) -> ImageGrid:
    """Blocky handwritten-style digit 7 on a dark background."""
    u, v = _coords(L)
    img = np.full((L, L), 0.05)
    top_bar = (u >= 0.15) & (u <= 0.28) & (v >= 0.2) & (v <= 0.8)
    # diagonal stroke from top right down to bottom center
    stroke = (u > 0.28) & (u <= 0.85) & (np.abs(v - (0.8 - 0.55 * (u - 0.28) / 0.57)) <= 0.09)
    img = np.where(top_bar | stroke, 0.95, img)
    return ImageGrid(img)


BUILTIN_IMAGES = {"sign": sign_image, "scene": scene_image, "digit": digit_image}


def get_image(name: str, L: int) -> ImageGrid:
    if name not in BUILTIN_IMAGES:
        raise ValidationError(f"unknown builtin image {name!r}; have {sorted(BUILTIN_IMAGES)}")
    return BUILTIN_IMAGES[name](L)
