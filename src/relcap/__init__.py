"""Desk-scale relational captioning toolkit.

Generates a caption for every ordered (subject, object) region pair of an
image with triple-stream recurrent decoding and POS-aware multi-task
supervision, plus the matching evaluation metrics, caption graphs,
retrieval, and a deterministic toy world to train on.
"""

__version__ = "0.1.0"

from .geometry import Box, Proposals  # noqa: F401
from .model import ModelConfig  # noqa: F401
