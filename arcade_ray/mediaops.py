"""Multimodal (image/audio/video) column operators.

Media travels as opaque ``binary`` columns plus typed metadata columns
(media_type, width/height or sample_rate, nbytes). The IMAGE stages
decode a REAL format end-to-end: PNG via the pure-stdlib codec in
:mod:`arcade_ray.png` (8-bit gray/RGB/RGBA/palette, all five scanline
filters) — no PIL/cv2 needed. The deterministic FAKE payload format
remains as a fast fixture fallback, and ``strict=True`` still marks
where a full codec suite (JPEG/WebP via PIL/cv2) would plug in. Audio
and video decode remain fixture-format-only (soundfile/pyav are not in
this container) with the same strict markers. The schema handling,
actor-pool batching, small-batch sizing for large payloads, and output
layout are real and tested (tests/test_mediaops.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .png import PNG_SIGNATURE, decode_png, encode_png, to_grayscale

FAKE_MAGIC = b"FAKEIMG1"


def _decode_fake(payload: bytes) -> np.ndarray:
    if payload[:8] != FAKE_MAGIC:
        raise ValueError("not a fake image payload")
    w = int.from_bytes(payload[8:10], "little")
    h = int.from_bytes(payload[10:12], "little")
    return np.frombuffer(payload, dtype=np.uint8, count=w * h, offset=12).reshape(h, w)


def decode_image(payload: bytes) -> np.ndarray:
    """Dispatch on magic bytes: real PNG (any supported color type,
    collapsed to grayscale luma for the single-channel feature/resize
    kernels) or the deterministic fixture format."""
    if payload[:8] == PNG_SIGNATURE:
        return to_grayscale(decode_png(payload))
    return _decode_fake(payload)


class ImageFeatureExtractor:
    """Actor-pool stage: decode -> resize(pool) -> feature vector.

    __init__ is the model/kernel load point (once per actor); with no
    real image libs in the sandbox, it wires the fake decoder, or
    raises NotImplementedError in strict mode to mark the integration
    point for PIL/cv2."""

    def __init__(self, out_size: int = 8, strict: bool = False):
        if strict:
            raise NotImplementedError(
                "strict mode marks the full-codec integration point "
                "(JPEG/WebP via PIL/cv2 — not in this container); PNG "
                "and the fixture format decode natively via "
                "decode_image")
        self.out_size = out_size
        self.decode = decode_image

    def _pool(self, img: np.ndarray) -> np.ndarray:
        s = self.out_size
        h, w = img.shape
        ys = (np.arange(s + 1) * h // s).astype(int)
        xs = (np.arange(s + 1) * w // s).astype(int)
        out = np.empty((s, s), dtype=np.float32)
        for i in range(s):
            for j in range(s):
                block = img[ys[i]:max(ys[i + 1], ys[i] + 1),
                            xs[j]:max(xs[j + 1], xs[j] + 1)]
                out[i, j] = float(block.mean())
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, means, ok = [], [], []
        for payload in batch["image"]:
            try:
                img = self.decode(payload.as_py())
                pooled = self._pool(img)
                feats.append(pooled.flatten().tolist())
                means.append(float(img.mean()))
                ok.append(True)
            except Exception:
                feats.append([0.0] * (self.out_size ** 2))
                means.append(0.0)
                ok.append(False)
        return pa.table({
            "media_id": batch["media_id"],
            "feature": pa.array(feats, type=pa.list_(pa.float32())),
            "mean_intensity": pa.array(means, type=pa.float64()),
            "decoded": pa.array(ok, type=pa.bool_()),
        })


def extract_image_features(ds, concurrency: int | None = None,
                           batch_size: int = 64):
    """Large binary payloads -> SMALL batch_size so batch x concurrency
    stays inside the worker heap (guide: memory-aware batch sizing).
    The pool leaves >=1 CPU for the read stage."""
    if concurrency is None:
        from .exchange import avail_cpus

        concurrency = max(1, min(8, avail_cpus() - 1))
    return ds.map_batches(
        ImageFeatureExtractor, batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency,
    )


class ImageResizer:
    """Actor-pool stage: decode -> area-mean resize to (w, h) ->
    re-encode as an opaque binary column (the prompt's explicit
    'resize' stage as an output TRANSFORM, vs the feature extractor's
    internal pooling). Same sandbox contract: fake codec wired here,
    strict=True marks the PIL/cv2 integration point."""

    def __init__(self, width: int = 32, height: int = 32,
                 strict: bool = False):
        if strict:
            raise NotImplementedError(
                "strict mode marks the full-codec integration point "
                "(JPEG/WebP via PIL/cv2 — not in this container); PNG "
                "and the fixture format decode natively via "
                "decode_image")
        self.w, self.h = width, height
        self.decode = decode_image

    def _resize(self, img: np.ndarray) -> np.ndarray:
        h, w = img.shape
        ys = (np.arange(self.h + 1) * h // self.h).astype(int)
        xs = (np.arange(self.w + 1) * w // self.w).astype(int)
        out = np.empty((self.h, self.w), dtype=np.uint8)
        for i in range(self.h):
            for j in range(self.w):
                block = img[ys[i]:max(ys[i + 1], ys[i] + 1),
                            xs[j]:max(xs[j + 1], xs[j] + 1)]
                out[i, j] = np.uint8(block.mean())
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads, ok = [], []
        for payload in batch["image"]:
            try:
                raw = payload.as_py()
                small = self._resize(self.decode(raw))
                if raw[:8] == PNG_SIGNATURE:  # format-preserving
                    payloads.append(encode_png(small))
                else:
                    payloads.append(
                        FAKE_MAGIC + int(self.w).to_bytes(2, "little")
                        + int(self.h).to_bytes(2, "little")
                        + small.tobytes())
                ok.append(True)
            except Exception:
                payloads.append(b"")
                ok.append(False)
        return pa.table({
            "media_id": batch["media_id"],
            "image": pa.array(payloads, type=pa.large_binary()),
            "width": pa.array([self.w] * len(ok), type=pa.int32()),
            "height": pa.array([self.h] * len(ok), type=pa.int32()),
            "decoded": pa.array(ok, type=pa.bool_()),
        })


def resize_images(ds, width: int = 32, height: int = 32,
                  concurrency: int | None = None, batch_size: int = 64):
    """Resize stage over an opaque binary image column (actor pool,
    small batches for big payloads — same sizing rules as
    extract_image_features)."""
    if concurrency is None:
        from .exchange import avail_cpus

        concurrency = max(1, min(8, avail_cpus() - 1))
    return ds.map_batches(
        ImageResizer, fn_constructor_kwargs={"width": width,
                                             "height": height},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
    )


# --- audio ------------------------------------------------------------------

FAKE_AUDIO_MAGIC = b"FAKEPCM1"


def _decode_fake_audio(payload: bytes) -> tuple[np.ndarray, int]:
    if payload[:8] != FAKE_AUDIO_MAGIC:
        raise ValueError("not a fake audio payload")
    rate = int.from_bytes(payload[8:12], "little")
    n = int.from_bytes(payload[12:16], "little")
    pcm = np.frombuffer(payload, dtype=np.int16, count=n, offset=16)
    return pcm.astype(np.float32) / 32768.0, rate


def encode_wav(pcm: np.ndarray, sample_rate: int) -> bytes:
    """int16 mono PCM -> RIFF/WAVE bytes (stdlib wave module)."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(np.ascontiguousarray(
            pcm, dtype="<i2").tobytes())
    return buf.getvalue()


def _decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """REAL-format decode: RIFF/WAVE PCM via the stdlib wave module
    (8/16/32-bit int PCM; multi-channel averages to mono)."""
    import io
    import wave

    with wave.open(io.BytesIO(payload), "rb") as w:
        nch, width, rate = (w.getnchannels(), w.getsampwidth(),
                            w.getframerate())
        frames = w.readframes(w.getnframes())
    if width == 2:
        x = np.frombuffer(frames, dtype="<i2").astype(np.float32) \
            / 32768.0
    elif width == 1:  # WAV 8-bit is unsigned
        x = (np.frombuffer(frames, dtype=np.uint8)
             .astype(np.float32) - 128.0) / 128.0
    elif width == 4:
        x = np.frombuffer(frames, dtype="<i4").astype(np.float32) \
            / 2147483648.0
    else:
        raise ValueError(f"WAV sample width {width} unsupported")
    if nch > 1:
        x = x[: (len(x) // nch) * nch].reshape(-1, nch).mean(axis=1)
    return x, rate


def decode_audio(payload: bytes) -> tuple[np.ndarray, int]:
    """Dispatch on magic bytes: real RIFF/WAVE PCM (stdlib wave) or
    the deterministic fixture format."""
    if payload[:4] == b"RIFF":
        return _decode_wav(payload)
    return _decode_fake_audio(payload)


class AudioFeatureExtractor:
    """Actor-pool stage: decode -> frame -> per-frame energy + zero
    crossings + spectral-band energies (numpy FFT — a real kernel over
    the fake PCM). __init__ is the codec/model load point; strict=True
    marks where soundfile/librosa would plug in."""

    def __init__(self, n_frames: int = 16, n_bands: int = 8,
                 strict: bool = False):
        if strict:
            raise NotImplementedError(
                "strict mode marks the full-codec integration point "
                "(MP3/FLAC/OGG via soundfile/librosa — not in this "
                "container); RIFF/WAVE PCM and the fixture format "
                "decode natively via decode_audio")
        self.n_frames = n_frames
        self.n_bands = n_bands
        self.decode = decode_audio

    def _features(self, pcm: np.ndarray) -> np.ndarray:
        f = self.n_frames
        n = len(pcm)
        if n < f:
            pcm = np.pad(pcm, (0, f - n))
            n = f
        frames = pcm[: (n // f) * f].reshape(f, -1)
        energy = np.sqrt((frames ** 2).mean(axis=1))
        zc = (np.diff(np.signbit(frames), axis=1) != 0).mean(axis=1)
        spec = np.abs(np.fft.rfft(frames, axis=1))
        # pool the spectrum into n_bands log-ish band energies
        bands = np.array_split(spec, self.n_bands, axis=1)
        band_e = np.stack([b.mean(axis=1) for b in bands], axis=1)  # (f, n_bands)
        return np.concatenate([energy, zc, band_e.mean(axis=0)])

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, rates, ok = [], [], []
        dim = 2 * self.n_frames + self.n_bands
        for payload in batch["audio"]:
            try:
                pcm, rate = self.decode(payload.as_py())
                feats.append(self._features(pcm).astype(np.float32).tolist())
                rates.append(rate)
                ok.append(True)
            except Exception:
                feats.append([0.0] * dim)
                rates.append(0)
                ok.append(False)
        return pa.table({
            "media_id": batch["media_id"],
            "feature": pa.array(feats, type=pa.list_(pa.float32())),
            "sample_rate": pa.array(rates, type=pa.int32()),
            "decoded": pa.array(ok, type=pa.bool_()),
        })


def extract_audio_features(ds, concurrency: int | None = None,
                           batch_size: int = 64):
    if concurrency is None:
        from .exchange import avail_cpus

        concurrency = max(1, min(8, avail_cpus() - 1))
    return ds.map_batches(
        AudioFeatureExtractor, batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency,
    )


# --- video ------------------------------------------------------------------

FAKE_VIDEO_MAGIC = b"FAKEVID1"


def sample_video_frames(payload: bytes, every: int = 4) -> list[bytes]:
    """Frame sampling: return every ``every``-th frame as a standalone
    fake-image payload (the decode-container step a real pipeline does
    with pyav/ffmpeg)."""
    if payload[:8] != FAKE_VIDEO_MAGIC:
        raise ValueError("not a fake video payload")
    w = int.from_bytes(payload[8:10], "little")
    h = int.from_bytes(payload[10:12], "little")
    n = int.from_bytes(payload[12:14], "little")
    frame_nb = 12 + w * h  # fake-image header + pixels
    out = []
    base = 14
    for i in range(0, n, every):
        off = base + i * frame_nb
        out.append(payload[off: off + frame_nb])
    return out


def sample_frames(ds, every: int = 4, concurrency: int | None = None,
                  batch_size: int = 16):
    """Video -> sampled frame rows (one row per kept frame, fake-image
    payloads ready for ImageFeatureExtractor). flat_map-shaped:
    map_batches emits more rows than it consumes. VERY small
    batch_size: video payloads are the largest objects in the
    pipeline."""

    def run(batch: pa.Table) -> pa.Table:
        ids, frame_idx, frames = [], [], []
        for mid, payload in zip(batch["media_id"], batch["video"]):
            try:
                fr = sample_video_frames(payload.as_py(), every)
            except ValueError:
                continue
            for j, f in enumerate(fr):
                ids.append(mid.as_py())
                frame_idx.append(j * every)
                frames.append(f)
        return pa.table({
            "media_id": pa.array(ids, type=pa.int64()),
            "frame_idx": pa.array(frame_idx, type=pa.int32()),
            "image": pa.array(frames, type=pa.binary()),
        })

    if concurrency is None:
        from .exchange import avail_cpus

        concurrency = max(1, min(8, avail_cpus() - 1))
    return ds.map_batches(run, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)
