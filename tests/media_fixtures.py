"""Deterministic synthetic media payloads in the fixture formats that
``arcade_ray.mediaops`` decodes (fake image, PCM audio and video
containers), for the media tests."""

import numpy as np

from arcade_ray.mediaops import FAKE_AUDIO_MAGIC, FAKE_MAGIC, FAKE_VIDEO_MAGIC


def make_fake_image(width: int, height: int, seed: int) -> bytes:
    """Deterministic fixture payload: 8-byte magic, u16 w/h, then
    w*h bytes of 'pixels'."""
    rng = np.random.default_rng(seed)
    header = FAKE_MAGIC + int(width).to_bytes(2, "little") + int(height).to_bytes(2, "little")
    return header + rng.integers(0, 256, width * height, dtype=np.uint8).tobytes()


def make_fake_audio(n_samples: int, sample_rate: int, seed: int) -> bytes:
    """Deterministic audio fixture: 8-byte magic, u32 sample_rate,
    u32 n_samples, then n_samples of i16 little-endian 'PCM'."""
    rng = np.random.default_rng(seed)
    header = (FAKE_AUDIO_MAGIC
              + int(sample_rate).to_bytes(4, "little")
              + int(n_samples).to_bytes(4, "little"))
    pcm = rng.integers(-32768, 32767, n_samples, dtype=np.int16)
    return header + pcm.tobytes()


def make_fake_video(width: int, height: int, n_frames: int,
                    seed: int) -> bytes:
    """Deterministic video fixture: 8-byte magic, u16 w/h, u16
    n_frames, then n_frames fake images back to back."""
    header = (FAKE_VIDEO_MAGIC + int(width).to_bytes(2, "little")
              + int(height).to_bytes(2, "little")
              + int(n_frames).to_bytes(2, "little"))
    frames = b"".join(make_fake_image(width, height, seed + i)
                      for i in range(n_frames))
    return header + frames
