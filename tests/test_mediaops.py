"""Multimodal stub plumbing: binary columns through an actor-pool
decode/feature stage (schema, batching, output layout are real)."""

import numpy as np
import pyarrow as pa
import pytest

from arcade_ray.mediaops import (
    FAKE_MAGIC,
    ImageFeatureExtractor,
    extract_image_features,
)
from media_fixtures import make_fake_audio, make_fake_image, make_fake_video


def make_media_table(n=40):
    rng = np.random.default_rng(42)
    payloads = [make_fake_image(16 + int(rng.integers(0, 16)),
                                16 + int(rng.integers(0, 16)), seed=i)
                for i in range(n)]
    payloads[5] = b"corrupted"
    return pa.table({
        "media_id": pa.array(np.arange(n), type=pa.int64()),
        "media_type": pa.array(["image/fake"] * n),
        "image": pa.array(payloads, type=pa.binary()),
    })


def test_strict_mode_marks_integration_point():
    with pytest.raises(NotImplementedError):
        ImageFeatureExtractor(strict=True)


def test_extractor_unit():
    ex = ImageFeatureExtractor(out_size=4)
    out = ex(make_media_table(8))
    assert out["feature"].type == pa.list_(pa.float32())
    assert len(out["feature"][0].as_py()) == 16
    assert out["decoded"].to_pylist()[5] is False
    assert all(out["decoded"].to_pylist()[:5])


def test_pipeline(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(make_media_table(40))
    out = extract_image_features(ds, concurrency=2, batch_size=8).to_pandas()
    assert len(out) == 40
    assert out["decoded"].sum() == 39
    # deterministic features across runs
    out2 = extract_image_features(rd.from_arrow(make_media_table(40)),
                                  concurrency=2, batch_size=8).to_pandas()
    a = out.sort_values("media_id").reset_index(drop=True)
    b = out2.sort_values("media_id").reset_index(drop=True)
    assert (a["mean_intensity"] == b["mean_intensity"]).all()


def test_audio_extractor_unit():
    from arcade_ray.mediaops import AudioFeatureExtractor

    n = 6
    tab = pa.table({
        "media_id": pa.array(np.arange(n), type=pa.int64()),
        "audio": pa.array(
            [make_fake_audio(4000 + 100 * i, 16000, seed=i) for i in range(n - 1)]
            + [b"junk"], type=pa.binary()),
    })
    ex = AudioFeatureExtractor(n_frames=8, n_bands=4)
    out = ex(tab)
    assert len(out["feature"][0].as_py()) == 2 * 8 + 4
    assert out["decoded"].to_pylist() == [True] * (n - 1) + [False]
    assert out["sample_rate"].to_pylist()[0] == 16000


def test_audio_strict_marks_integration_point():
    from arcade_ray.mediaops import AudioFeatureExtractor

    with pytest.raises(NotImplementedError):
        AudioFeatureExtractor(strict=True)


def test_video_frame_sampling_to_image_features(ray_session):
    """Video container -> sampled frames -> image features: the full
    multimodal chain through actor pools."""
    import ray.data as rd

    from arcade_ray.mediaops import extract_image_features, sample_frames

    n = 6
    tab = pa.table({
        "media_id": pa.array(np.arange(n), type=pa.int64()),
        "video": pa.array(
            [make_fake_video(16, 12, n_frames=8, seed=i * 10) for i in range(n)],
            type=pa.binary()),
    })
    ds = rd.from_arrow(tab)
    frames = sample_frames(ds, every=4, concurrency=2)
    feats = extract_image_features(frames, concurrency=2)
    out = feats.to_pandas()
    assert len(out) == n * 2  # frames 0 and 4 kept per video
    assert out["decoded"].all()


def test_resize_images_roundtrip(ray_session):
    """Resize emits re-decodable payloads at the target geometry; the
    output chains into the feature extractor (decode -> resize ->
    extract composes)."""
    import ray.data as rd

    from arcade_ray.collect import collect_arrow
    from arcade_ray.mediaops import (_decode_fake, extract_image_features,
                                     resize_images)

    rows = [{"media_id": i, "image": make_fake_image(40 + i % 17, 30 + i % 7, i)}
            for i in range(40)]
    ds = rd.from_items(rows)
    out = collect_arrow(resize_images(ds, width=16, height=12,
                                      concurrency=2, batch_size=8))
    assert out.num_rows == 40
    assert out["decoded"].to_pylist() == [True] * 40
    img = _decode_fake(out["image"][0].as_py())
    assert img.shape == (12, 16)
    feats = collect_arrow(extract_image_features(
        rd.from_arrow(out.select(["media_id", "image"])), concurrency=2))
    assert feats.num_rows == 40 and all(feats["decoded"].to_pylist())


# --- real PNG codec (arcade_ray.png) ---------------------------------------


def test_png_roundtrip_pixel_exact():
    """encode_png -> decode_png is pixel-exact for grayscale, RGB and
    RGBA arrays of assorted odd sizes."""
    from arcade_ray.png import decode_png, encode_png

    rng = np.random.default_rng(5)
    for shape in [(1, 1), (7, 3), (16, 16), (33, 17), (5, 64, 3),
                  (9, 11, 4)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        out = decode_png(encode_png(img))
        assert out.shape == img.shape
        assert (out == img).all(), shape


def test_png_all_filter_types_unfilter():
    """Hand-built PNGs exercising every scanline filter (None / Sub /
    Up / Average / Paeth) decode to the reference reconstruction
    computed by an independent per-pixel implementation."""
    import struct
    import zlib

    from arcade_ray.png import PNG_SIGNATURE, decode_png

    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data)))

    rng = np.random.default_rng(9)
    h, w, bpp = 5, 6, 1
    filt = [0, 1, 2, 3, 4]  # one row per filter type
    raw_rows = rng.integers(0, 256, (h, w * bpp), dtype=np.uint8)

    # independent reference unfilter (straight from the PNG spec's
    # per-pixel recurrences)
    ref = np.zeros((h, w * bpp), dtype=np.int64)
    for y in range(h):
        for x in range(w * bpp):
            a = ref[y][x - bpp] if x >= bpp else 0
            b = ref[y - 1][x] if y >= 1 else 0
            c = ref[y - 1][x - bpp] if (x >= bpp and y >= 1) else 0
            ft = filt[y]
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = a
            elif ft == 2:
                pred = b
            elif ft == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else c)
            ref[y][x] = (int(raw_rows[y][x]) + pred) % 256

    stream = b"".join(bytes([filt[y]]) + raw_rows[y].tobytes()
                      for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    payload = (PNG_SIGNATURE + chunk(b"IHDR", ihdr)
               + chunk(b"IDAT", zlib.compress(stream))
               + chunk(b"IEND", b""))
    got = decode_png(payload)
    assert (got == ref.astype(np.uint8)).all()


def test_png_palette_and_multichannel_decode():
    import struct
    import zlib

    from arcade_ray.png import PNG_SIGNATURE, decode_png

    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data)))

    # 2x2 palette image: indices 0..3 into a 4-color palette
    plte = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 9, 9, 9])
    stream = b"\x00" + bytes([0, 1]) + b"\x00" + bytes([2, 3])
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
    payload = (PNG_SIGNATURE + chunk(b"IHDR", ihdr)
               + chunk(b"PLTE", plte)
               + chunk(b"IDAT", zlib.compress(stream))
               + chunk(b"IEND", b""))
    got = decode_png(payload)
    assert got.shape == (2, 2, 3)
    assert got[0, 0].tolist() == [255, 0, 0]
    assert got[1, 1].tolist() == [9, 9, 9]


def test_png_refusals():
    import struct
    import zlib

    import pytest as _pt

    from arcade_ray.png import PNG_SIGNATURE, decode_png, encode_png

    with _pt.raises(ValueError, match="not a PNG"):
        decode_png(b"JUNKJUNK" + b"\x00" * 32)
    # 16-bit depth refuses
    def chunk(ctype, data):
        return (struct.pack(">I", len(data)) + ctype + data
                + struct.pack(">I", zlib.crc32(ctype + data)))
    ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 0, 0, 0, 0)
    payload = (PNG_SIGNATURE + chunk(b"IHDR", ihdr)
               + chunk(b"IDAT", zlib.compress(b"\x00" * 20))
               + chunk(b"IEND", b""))
    with _pt.raises(ValueError, match="8-bit"):
        decode_png(payload)
    with _pt.raises(ValueError, match="shape"):
        encode_png(np.zeros((2, 2, 2), dtype=np.uint8))


def test_image_pipeline_on_real_pngs(ray_session):
    """extract_image_features + resize_images run on spec-compliant
    PNG payloads end-to-end; the resize output is itself a decodable
    PNG (format-preserving)."""
    import ray.data as rd

    from arcade_ray.mediaops import extract_image_features, resize_images
    from arcade_ray.png import decode_png, encode_png

    rng = np.random.default_rng(3)
    n = 24
    payloads = []
    for i in range(n):
        if i % 3 == 2:  # RGB mixed in: luma conversion path
            img = rng.integers(0, 256, (20 + i % 5, 17, 3),
                               dtype=np.uint8)
        else:
            img = rng.integers(0, 256, (16 + i % 7, 19), dtype=np.uint8)
        payloads.append(encode_png(img))
    payloads[4] = b"corrupted png"
    t = pa.table({
        "media_id": pa.array(np.arange(n), type=pa.int64()),
        "image": pa.array(payloads, type=pa.binary()),
    })
    out = extract_image_features(rd.from_arrow(t), concurrency=2,
                                 batch_size=8).to_pandas()
    assert len(out) == n and out["decoded"].sum() == n - 1
    assert not out[out.media_id == 4]["decoded"].iloc[0]

    res = resize_images(rd.from_arrow(t), width=8, height=8,
                        concurrency=2, batch_size=8).to_pandas()
    ok = res[res["decoded"]]
    assert len(ok) == n - 1
    small = decode_png(ok["image"].iloc[0])
    assert small.shape == (8, 8)


# --- real WAV audio (stdlib wave module) ------------------------------------


def test_wav_roundtrip_and_pipeline(ray_session):
    """RIFF/WAVE PCM decodes for real: encode_wav -> decode_audio is
    sample-exact for int16 mono; 8-bit and stereo paths normalize;
    the actor-pool feature extractor runs on real WAV payloads."""
    import io
    import wave

    import ray.data as rd

    from arcade_ray.mediaops import (decode_audio, encode_wav,
                                     extract_audio_features)

    rng = np.random.default_rng(11)
    pcm = rng.integers(-32768, 32767, 4000, dtype=np.int16)
    payload = encode_wav(pcm, 16000)
    x, rate = decode_audio(payload)
    assert rate == 16000 and len(x) == 4000
    assert np.allclose(x, pcm.astype(np.float32) / 32768.0)

    # stereo averages to mono
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(8000)
        inter = np.empty(200, dtype="<i2")
        inter[0::2] = 100
        inter[1::2] = 300
        w.writeframes(inter.tobytes())
    x2, rate2 = decode_audio(buf.getvalue())
    assert rate2 == 8000 and len(x2) == 100
    assert np.allclose(x2, 200.0 / 32768.0)

    n = 12
    payloads = [encode_wav(
        rng.integers(-32768, 32767, 1000 + 100 * i, dtype=np.int16),
        16000) for i in range(n)]
    payloads[3] = b"RIFFgarbage"
    t = pa.table({
        "media_id": pa.array(np.arange(n), type=pa.int64()),
        "audio": pa.array(payloads, type=pa.binary()),
    })
    out = extract_audio_features(rd.from_arrow(t), concurrency=2,
                                 batch_size=4).to_pandas()
    assert len(out) == n and out["decoded"].sum() == n - 1
    assert (out[out["decoded"]]["sample_rate"] == 16000).all()
