"""Multimodal column plumbing: opaque binary media + typed metadata.

Images/audio/video ride through the engine as ``binary`` columns with a
``media_type`` tag — the same dispatch pattern as the HTML/PDF payload column
(functions/sniff.py). Decode / feature-extraction stages are actor-pool
``map_batches`` classes. Two decode regimes:

- **Real** (round 4): ``PngDecoder`` decodes 8-bit grayscale PNG through the
  from-scratch zlib codec (true dims + exact pixel stats; ``MediaResize``
  does a genuine nearest-neighbor pixel resample for this format), and
  ``WavDecoder`` parses RIFF/WAVE PCM-8 via the chunk-walking reader (true
  duration + exact sample stats).
- **Stub** (declared env boundary): formats needing PIL/ffmpeg/librosa fall
  back to ``DecoderStub`` (deterministic pseudo-metadata) or
  ``RealDecoderUnavailable`` (loud NotImplementedError); the Ray-side
  plumbing — schema, batch sizing for large binary rows, actor signature,
  output layout — is identical in both regimes.

Scale notes: binary rows are big — callers should use a small ``batch_size``
and ``batch_format="pyarrow"`` (binary columns round-trip zero-copy through
Arrow; pandas would copy to object dtype).
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Optional

import numpy as np
import pyarrow as pa

from service1_text_extraction_ray.functions.page_render import (
    RENDER_SCALE,
    rasterize_page,
    read_gray_png,
    write_gray_png_array,
)


FEATURE_DIM = 8

FEATURE_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),
        ("n_bytes", pa.int64()),
        ("sha256", pa.string()),
        ("decode_ok", pa.bool_()),
        ("width", pa.int32()),        # stub-deterministic; real decoder fills these
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
        ("features", pa.list_(pa.float32(), FEATURE_DIM)),
    ]
)


class DecoderStub:
    """Deterministic fake decoder.

    A real implementation would do ``PIL.Image.open`` / ``soundfile.read`` /
    frame sampling here; none of those libraries exist in this container, so
    the stub derives deterministic pseudo-metadata and a pseudo-feature vector
    from the payload's sha256. Swap in a real decoder by passing any object
    with the same ``decode(payload, media_type) -> dict`` signature to
    ``MediaFeatureExtractor``.
    """

    def decode(self, payload: bytes, media_type: str) -> dict:
        h = hashlib.sha256(payload).digest()
        vec = (
            np.frombuffer(h[:FEATURE_DIM * 4], dtype=np.uint32).astype(np.float32)
            / np.float32(2**32)
        )
        return {
            "decode_ok": True,
            "width": 16 + h[0] % 2048,
            "height": 16 + h[1] % 2048,
            "duration_ms": int.from_bytes(h[2:4], "little") if media_type in ("audio", "video") else 0,
            "features": vec,
        }


class RealDecoderUnavailable:
    """Explicit NotImplementedError decoder — use when silent fakes are
    unacceptable and the pipeline should fail loudly on media rows."""

    def decode(self, payload: bytes, media_type: str) -> dict:
        raise NotImplementedError(
            "no image/audio decoder available in this environment; "
            "install one and plug it into MediaFeatureExtractor"
        )


class PngDecoder:
    """REAL image decoder for the engine's native raster format: 8-bit
    grayscale PNG via the from-scratch stdlib-zlib codec
    (functions/page_render.read_gray_png — all five ISO scanline filters).

    Returns true dimensions, exact integer pixel statistics, and a
    pixel-histogram feature vector. Non-PNG / unsupported-color payloads
    raise ValueError, which the calling stage isolates into
    ``decode_ok=False`` rows — the same contract a PIL/ffmpeg decoder
    would have. Audio/video formats stay behind RealDecoderUnavailable."""

    def decode(self, payload: bytes, media_type: str) -> dict:
        arr = read_gray_png(bytes(payload))
        h, w = int(arr.shape[0]), int(arr.shape[1])
        n = max(1, arr.size)
        n_on = int((arr >= 128).sum())
        px_sum = int(arr.sum(dtype=np.int64))
        hist4 = np.bincount(arr.reshape(-1) >> 6, minlength=4)
        vec = np.array(
            [w, h, n_on, arr.size - n_on,
             hist4[0], hist4[1], hist4[2], hist4[3]],
            dtype=np.float32,
        )
        return {
            "decode_ok": True, "width": w, "height": h, "duration_ms": 0,
            "features": vec, "pixels": arr,
            "n_on": n_on, "px_sum": px_sum,
            "mean_milli": 1000 * px_sum // n,
        }


def resize_gray_nearest(arr: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Deterministic nearest-neighbor resample (floor index mapping
    ``src = i * src_dim // target_dim``) — integer-exact, so resized pixel
    content is reproducible bit-for-bit at any parallelism and replayable
    arithmetically by tests/oracles."""
    h, w = arr.shape
    ys = (np.arange(th, dtype=np.int64) * h) // th
    xs = (np.arange(tw, dtype=np.int64) * w) // tw
    return arr[np.ix_(ys, xs)]


class MediaFeatureExtractor:
    """Actor-pool stage: media batches in, FEATURE_SCHEMA batches out.

    Use as ``ds.map_batches(MediaFeatureExtractor, batch_format="pyarrow",
    batch_size=16, concurrency=(1, N))`` — decoder state is built once per
    actor; per-row failures isolate into decode_ok=False rows (the engine's
    failure-isolation contract, functions/extract.py)."""

    def __init__(self, decoder: Optional[object] = None) -> None:
        self.decoder = decoder or DecoderStub()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["media_type"].to_pylist()
        payloads = batch["media"].to_pylist()

        cols = {k: [] for k in ("n_bytes", "sha256", "decode_ok", "width", "height",
                                "duration_ms", "features")}
        for payload, kind in zip(payloads, kinds):
            payload = payload or b""
            cols["n_bytes"].append(len(payload))
            cols["sha256"].append(hashlib.sha256(payload).hexdigest())
            try:
                d = self.decoder.decode(payload, kind)
                cols["decode_ok"].append(bool(d["decode_ok"]))
                cols["width"].append(int(d["width"]))
                cols["height"].append(int(d["height"]))
                cols["duration_ms"].append(int(d["duration_ms"]))
                cols["features"].append(np.asarray(d["features"], dtype=np.float32))
            except NotImplementedError:
                raise
            except Exception:
                cols["decode_ok"].append(False)
                cols["width"].append(0)
                cols["height"].append(0)
                cols["duration_ms"].append(0)
                cols["features"].append(np.zeros(FEATURE_DIM, dtype=np.float32))

        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.int64()),
                pa.array(kinds, pa.string()),
                pa.array(cols["n_bytes"], pa.int64()),
                pa.array(cols["sha256"], pa.string()),
                pa.array(cols["decode_ok"], pa.bool_()),
                pa.array(cols["width"], pa.int32()),
                pa.array(cols["height"], pa.int32()),
                pa.array(cols["duration_ms"], pa.int32()),
                pa.array([v.tolist() for v in cols["features"]], pa.list_(pa.float32(), FEATURE_DIM)),
            ],
            schema=FEATURE_SCHEMA,
        )


RESIZE_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("media_type", pa.string()),
        ("target_w", pa.int32()),
        ("target_h", pa.int32()),
        ("resized_png", pa.binary()),   # real (placeholder-shaded) PNG bytes
        ("resize_ok", pa.bool_()),
    ]
)


class MediaResize:
    """Actor-pool resize stage. Two regimes per row:

    - payload decodes as the native raster format (8-bit grayscale PNG,
      ``PngDecoder``) → **REAL resample**: aspect-fit target geometry,
      nearest-neighbor pixel resize (``resize_gray_nearest``), re-encoded
      through the real codec — ``resize_ok=True``.
    - anything else (the stub decoder's opaque formats) → placeholder PNG
      of the aspect-fitted pseudo-geometry, shaded by the payload hash,
      ``resize_ok=False`` — the declared env-blocked boundary for formats
      with no in-sandbox codec."""

    def __init__(self, target: int = 64, decoder: Optional[object] = None) -> None:
        self.target = target
        self.decoder = decoder or DecoderStub()
        self._png = PngDecoder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for media_id, kind, payload in zip(
            batch["media_id"].to_pylist(),
            batch["media_type"].to_pylist(),
            batch["media"].to_pylist(),
        ):
            payload = payload or b""
            try:
                d = self._png.decode(payload, kind)
                real = True
            except Exception:  # not a native-format raster -> stub regime
                d = self.decoder.decode(payload, kind)
                real = False
            w, h = int(d["width"]), int(d["height"])
            scale = self.target / max(w, h, 1)
            tw, th = max(1, round(w * scale)), max(1, round(h * scale))
            if real:
                png = write_gray_png_array(
                    resize_gray_nearest(d["pixels"], tw, th)
                )
            else:
                png = write_gray_png(
                    tw, th, hashlib.sha256(payload).digest()[1]
                )
            rows.append({
                "media_id": int(media_id), "media_type": kind,
                "target_w": tw, "target_h": th,
                "resized_png": png,
                "resize_ok": real,
            })
        return pa.Table.from_pylist(rows, schema=RESIZE_SCHEMA)


FRAME_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("frame_idx", pa.int32()),
        ("ts_ms", pa.int32()),
        ("frame_png", pa.binary()),
        ("decode_ok", pa.bool_()),
    ]
)

FRAME_INTERVAL_MS = 1000
MAX_FRAMES = 8


class FrameSampler:
    """Actor-pool frame-sampling stage for video rows — one input row
    explodes into per-frame rows (the flat_map shape). Two regimes:

    - payload decodes as GIF (``GifDecoder``, the from-scratch LZW codec)
      → **REAL frames**: each animation frame's actual pixels re-encoded
      as grayscale PNG, timestamped by the cumulative per-frame delays,
      capped at MAX_FRAMES — ``decode_ok=True``.
    - anything else → the stub regime (placeholder PNGs at
      FRAME_INTERVAL_MS spacing over the pseudo-duration,
      ``decode_ok=False``) — the declared boundary for formats needing
      ffmpeg. Non-video rows emit zero frames (dispatch by media_type)."""

    def __init__(self, decoder: Optional[object] = None) -> None:
        self.decoder = decoder or DecoderStub()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for media_id, kind, payload in zip(
            batch["media_id"].to_pylist(),
            batch["media_type"].to_pylist(),
            batch["media"].to_pylist(),
        ):
            if kind != "video":
                continue
            payload = payload or b""
            try:
                # Decode AND re-encode every frame before touching `rows`:
                # a mid-loop failure must not leave partial real frames that
                # the stub regime below would then duplicate per frame_idx.
                d = GifDecoder().decode(payload, kind)
                frame_rows = []
                ts = 0
                for i, (frame, delay) in enumerate(
                    zip(d["frames"][:MAX_FRAMES], d["delays_cs"])
                ):
                    frame_rows.append({
                        "media_id": int(media_id),
                        "frame_idx": i,
                        "ts_ms": ts,
                        "frame_png": write_gray_png_array(frame),
                        "decode_ok": True,
                    })
                    ts += 10 * int(delay)
            except Exception:
                pass  # not a GIF -> stub regime
            else:
                rows.extend(frame_rows)
                continue
            d = self.decoder.decode(payload, kind)
            n = min(MAX_FRAMES, max(1, int(d["duration_ms"]) // FRAME_INTERVAL_MS))
            digest = hashlib.sha256(payload).digest()
            for i in range(n):
                rows.append({
                    "media_id": int(media_id),
                    "frame_idx": i,
                    "ts_ms": i * FRAME_INTERVAL_MS,
                    "frame_png": write_gray_png(16, 9, digest[i % 32]),
                    "decode_ok": False,
                })
        return pa.Table.from_pylist(rows, schema=FRAME_SCHEMA)


# ---------------------------------------------------------------------------
# Real audio: from-scratch RIFF/WAVE PCM codec (stdlib struct only)
# ---------------------------------------------------------------------------

WAV_RATE = 8000  # fixed sample rate for the synthetic corpus


def write_wav_pcm8(samples: np.ndarray, rate: int = WAV_RATE) -> bytes:
    """Minimal canonical RIFF/WAVE writer: PCM (format 1), mono, 8-bit
    unsigned samples. A real, universally-readable WAV file — the audio
    analogue of the from-scratch PNG codec."""
    import struct

    data = np.asarray(samples, dtype=np.uint8).tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 1, 1, 8)
    chunks = (
        b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def read_wav_pcm8(payload: bytes) -> tuple:
    """Parse a RIFF/WAVE file; returns ``(samples: uint8 ndarray, rate)``.

    Walks the chunk list (tolerating extra chunks a real encoder may
    insert), validates PCM/mono/8-bit, raises ValueError on anything
    else — the per-row failure-isolation contract."""
    import struct

    if len(payload) < 12 or payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    i, rate, bits, channels, data = 12, None, None, None, None
    while i + 8 <= len(payload):
        tag = payload[i : i + 4]
        (size,) = struct.unpack("<I", payload[i + 4 : i + 8])
        body = payload[i + 8 : i + 8 + size]
        if tag == b"fmt ":
            if len(body) < 16:
                raise ValueError("short fmt chunk")
            audio_fmt, channels, rate, _br, _ba, bits = struct.unpack(
                "<HHIIHH", body[:16]
            )
            if audio_fmt != 1:
                raise ValueError("only PCM supported")
        elif tag == b"data":
            data = body
        i += 8 + size + (size & 1)  # chunks are word-aligned
    if rate is None or data is None:
        raise ValueError("missing fmt/data chunk")
    if channels != 1 or bits != 8:
        raise ValueError("only 8-bit mono supported")
    return np.frombuffer(data, dtype=np.uint8), int(rate)


class WavDecoder:
    """REAL audio decoder for RIFF/WAVE PCM-8 mono — returns true duration
    and exact integer sample statistics. Non-WAV payloads raise
    ValueError (decode_ok=False isolation); use beside PngDecoder for a
    fully real image+audio decode surface."""

    def decode(self, payload: bytes, media_type: str) -> dict:
        samples, rate = read_wav_pcm8(bytes(payload))
        n = max(1, samples.size)
        n_hi = int((samples >= 128).sum())
        s = int(samples.sum(dtype=np.int64))
        vec = np.array(
            [samples.size, rate, n_hi, samples.size - n_hi,
             int(samples.min()) if samples.size else 0,
             int(samples.max()) if samples.size else 0,
             s % (1 << 31), 0],
            dtype=np.float32,
        )
        return {
            "decode_ok": True, "width": 0, "height": 0,
            "duration_ms": 1000 * samples.size // rate,
            "features": vec,
            "n_samples": int(samples.size), "rate": rate,
            "n_hi": n_hi, "sample_sum": s,
        }


class GifDecoder:
    """REAL animation decoder: GIF89a through the from-scratch LZW codec
    (functions/gif.py). Returns frame count, true duration (sum of
    per-frame delays), and the grayscale frame arrays; non-GIF payloads
    raise ValueError (decode_ok=False isolation). Completes the real
    decode trio: PNG (image), WAV (audio), GIF (video/animation)."""

    def decode(self, payload: bytes, media_type: str) -> dict:
        from ..functions.gif import read_gif

        frames, delays = read_gif(bytes(payload))
        h, w = frames[0].shape
        duration_ms = 10 * sum(delays)
        n_on0 = int((frames[0] >= 128).sum())
        vec = np.array(
            [w, h, len(frames), duration_ms, n_on0,
             frames[0].size - n_on0, 0, 0],
            dtype=np.float32,
        )
        return {
            "decode_ok": True, "width": int(w), "height": int(h),
            "duration_ms": duration_ms, "features": vec,
            "frames": frames, "delays_cs": delays,
        }


# ---------------------------------------------------------------------------
# Page render operator (P14: page -> PNG, pdf_service.py:126-142)
# ---------------------------------------------------------------------------
#
# A real bitmap-font rasterization (the engine's OCR rasterizer at 1 pt =
# 1 px, ``render_ok=True``) for every page with a layout tree; pages with no
# layout get a deterministic PLACEHOLDER (uniform shade from the text's
# sha256, ``render_ok=False``).

THUMB_MAX_DIM = 64  # placeholder raster size cap (long edge, pixels)

RENDER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("page", pa.int32()),
        ("png_b64", pa.string()),
        ("width_px", pa.int32()),
        ("height_px", pa.int32()),
        ("render_ok", pa.bool_()),
    ]
)


def write_gray_png(width: int, height: int, shade: int) -> bytes:
    """Minimal valid 8-bit grayscale PNG of one uniform shade."""
    return write_gray_png_array(
        np.full((max(1, height), max(1, width)), shade & 0xFF, dtype=np.uint8)
    )


def render_page_placeholder(text: str, layout_json: str) -> dict:
    """Deterministic placeholder render of one extracted page."""
    page_w, page_h = 612.0, 792.0  # letter default (pdf_extract default box)
    if layout_json:
        try:
            layout = json.loads(layout_json)
            page_w = float(layout.get("width") or page_w)
            page_h = float(layout.get("height") or page_h)
        except (ValueError, TypeError):
            pass
    scale = THUMB_MAX_DIM / max(page_w, page_h, 1.0)
    px_w = max(1, int(round(page_w * scale)))
    px_h = max(1, int(round(page_h * scale)))
    shade = hashlib.sha256(text.encode("utf-8")).digest()[0]
    png = write_gray_png(px_w, px_h, shade)
    return {
        "png_b64": base64.b64encode(png).decode("ascii"),
        "width_px": px_w,
        "height_px": px_h,
        "render_ok": False,  # placeholder, not a real rasterization
    }


def render_page(text: str, layout_json: str) -> dict:
    """Render one extracted page: a real bitmap-font rasterization when a
    layout tree with blocks is available (``render_ok=True``), else the
    deterministic placeholder (``render_ok=False``)."""
    layout = None
    if layout_json:
        try:
            layout = json.loads(layout_json)
        except (ValueError, TypeError):
            layout = None
    if not layout or not layout.get("blocks"):
        return render_page_placeholder(text or "", layout_json or "")
    canvas = rasterize_page(layout, scale=RENDER_SCALE)
    return {
        "png_b64": base64.b64encode(write_gray_png_array(canvas)).decode("ascii"),
        "width_px": int(canvas.shape[1]),
        "height_px": int(canvas.shape[0]),
        "render_ok": True,
    }


def render_pages_batch(batch: pa.Table) -> pa.Table:
    """Batch transform over page-grain extraction output."""
    texts = batch["extracted_text"].to_pylist()
    layouts = batch["layout_json"].to_pylist()
    rows = []
    for url, page, text, lj in zip(
        batch["url"].to_pylist(), batch["page"].to_pylist(), texts, layouts
    ):
        r = render_page(text or "", lj or "")
        r["url"] = url
        r["page"] = page
        rows.append(r)
    return pa.Table.from_pylist(rows, schema=RENDER_SCHEMA)
