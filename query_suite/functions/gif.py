"""From-scratch GIF89a codec (stdlib-only) — the animation/video analogue
of the PNG (functions/page_render.py) and WAV (stages/multimodal.py)
codecs.

Implements the real format end to end so the frame-sampling stage decodes
actual animations instead of stubbing:

- **Writer**: GIF89a header, logical screen descriptor, 2-entry global
  color table (black/white), per-frame Graphic Control Extension (delay in
  centiseconds) + image descriptor + REAL LZW-compressed index stream
  (variable-width codes, dictionary growth, clear-code reset at table
  overflow, 255-byte sub-blocks).
- **Reader**: block walker (skips extensions it doesn't know), full LZW
  decoder (code-width growth, clear/end codes, the KwKwK case), color
  table mapping to 8-bit grayscale frames, per-frame delay extraction.

Subset: global color table only, no interlacing, no local color tables,
no transparency composition (each frame is a full-size replace) — the
writer stays inside the subset; the reader raises ``ValueError`` on
anything outside it (the per-row failure-isolation contract).

Reference parity note: the reference's media handling is out of scope of
its service (SURVEY.md §2 lists none); this module exists for the
training-data-pipeline multimodal surface (media_frames / video decode).
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np

_GCT = b"\x00\x00\x00\xff\xff\xff"  # index 0 = black, 1 = white
_MIN_CODE_SIZE = 2  # spec minimum even for 2-color palettes


class _BitWriter:
    """LSB-first bit packer (GIF's LZW bit order)."""

    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, width: int) -> None:
        self.acc |= code << self.nbits
        self.nbits += width
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def finish(self) -> bytes:
        if self.nbits:
            self.out.append(self.acc & 0xFF)
        return bytes(self.out)


def _lzw_encode(indices: np.ndarray, min_code_size: int = _MIN_CODE_SIZE) -> bytes:
    """Real GIF LZW: dictionary build-up, variable code width, clear-code
    reset when the table reaches 4096."""
    clear = 1 << min_code_size
    end = clear + 1
    bw = _BitWriter()

    def reset() -> Tuple[dict, int, int]:
        return ({(i,): i for i in range(clear)}, end + 1, min_code_size + 1)

    table, next_code, width = reset()
    bw.write(clear, width)
    prefix: tuple = ()
    for px in indices.reshape(-1).tolist():
        cand = prefix + (px,)
        if cand in table:
            prefix = cand
            continue
        bw.write(table[prefix], width)
        table[cand] = next_code
        next_code += 1
        if next_code == (1 << width) + 1 and width < 12:
            width += 1
        if next_code >= 4096:
            bw.write(clear, width)
            table, next_code, width = reset()
        prefix = (px,)
    if prefix:
        bw.write(table[prefix], width)
    bw.write(end, width)
    return bw.finish()


def _lzw_decode(data: bytes, min_code_size: int, n_expected: int) -> np.ndarray:
    clear = 1 << min_code_size
    end = clear + 1
    width = min_code_size + 1
    table: List[tuple] = [(i,) for i in range(clear)] + [(), ()]
    out: List[int] = []
    acc = nbits = pos = 0
    prev: tuple = ()
    while True:
        while nbits < width:
            if pos >= len(data):
                raise ValueError("truncated LZW stream")
            acc |= data[pos] << nbits
            nbits += 8
            pos += 1
        code = acc & ((1 << width) - 1)
        acc >>= width
        nbits -= width
        if code == clear:
            table = [(i,) for i in range(clear)] + [(), ()]
            width = min_code_size + 1
            prev = ()
            continue
        if code == end:
            break
        if code < len(table) and table[code]:
            entry = table[code]
        elif code == len(table) and prev:
            entry = prev + (prev[0],)  # the KwKwK case
        else:
            raise ValueError("bad LZW code")
        out.extend(entry)
        if prev:
            table.append(prev + (entry[0],))
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = entry
        if len(out) >= n_expected:
            break
    if len(out) < n_expected:
        raise ValueError("LZW stream shorter than frame")
    return np.array(out[:n_expected], dtype=np.uint8)


def _sub_blocks(data: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(data), 255):
        chunk = data[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out.append(0)
    return bytes(out)


def write_gif(frames: List[np.ndarray], delay_cs: int = 10) -> bytes:
    """Encode binary (0/1-index) frames as an animated GIF89a. Frames are
    2-D uint8 arrays of palette indices (0=black, 1=white), all the same
    shape."""
    if not frames:
        raise ValueError("need at least one frame")
    h, w = frames[0].shape
    out = bytearray(b"GIF89a")
    out += struct.pack("<HH", w, h)
    out += bytes([0x80 | 0x00, 0, 0])  # GCT present, 2 entries; bg 0; aspect 0
    out += _GCT
    # Netscape loop extension (animate forever) — standard for animations
    out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    for fr in frames:
        if fr.shape != (h, w):
            raise ValueError("all frames must share the logical screen size")
        out += b"\x21\xf9\x04"
        out += bytes([0x00]) + struct.pack("<H", delay_cs) + bytes([0, 0])
        out += b"\x2c" + struct.pack("<HHHH", 0, 0, w, h) + bytes([0x00])
        out += bytes([_MIN_CODE_SIZE])
        out += _sub_blocks(_lzw_encode(fr.astype(np.uint8)))
    out += b"\x3b"
    return bytes(out)


def read_gif(payload: bytes) -> Tuple[List[np.ndarray], List[int]]:
    """Decode a GIF into (grayscale frames, per-frame delays in cs).

    Frames come back as 2-D uint8 GRAY arrays (palette applied: the mean
    of each entry's RGB). Raises ValueError outside the supported subset
    (local color tables, interlace) and on ANY truncated/corrupt block
    structure — the per-row failure-isolation contract (callers catch
    ValueError; a struct.error/IndexError leak would kill the task).
    Fuzz-pinned: tests/test_fuzz.py feeds arbitrary bytes after the
    magic."""
    import struct as _struct

    try:
        return _read_gif_inner(payload)
    except (_struct.error, IndexError) as e:
        raise ValueError(f"truncated/corrupt GIF: {e}") from e


def _read_gif_inner(payload: bytes) -> Tuple[List[np.ndarray], List[int]]:
    if payload[:6] not in (b"GIF87a", b"GIF89a") or len(payload) < 13:
        raise ValueError("not a GIF")
    w, h = struct.unpack("<HH", payload[6:10])
    packed, _bg, _aspect = payload[10], payload[11], payload[12]
    i = 13
    palette = None
    if packed & 0x80:
        n_colors = 2 << (packed & 0x07)
        raw = payload[i : i + 3 * n_colors]
        palette = (
            np.frombuffer(raw, dtype=np.uint8)
            .reshape(-1, 3)
            .astype(np.uint16)
            .mean(axis=1)
            .astype(np.uint8)
        )
        i += 3 * n_colors
    frames: List[np.ndarray] = []
    delays: List[int] = []
    pending_delay = 0
    while i < len(payload):
        b = payload[i]
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension
            label = payload[i + 1]
            i += 2
            if label == 0xF9:  # graphic control
                size = payload[i]
                # Delay lives at bytes 1-2 of the sub-block; only trust it
                # when the declared size actually covers it (>= 3; the spec
                # value is 4) — a corrupt size < 3 would otherwise read the
                # NEXT block's bytes as the delay.
                if size >= 3:
                    pending_delay = struct.unpack("<H", payload[i + 2 : i + 4])[0]
                i += 1 + size
            while payload[i] != 0:  # skip (remaining) sub-blocks
                i += 1 + payload[i]
            i += 1
        elif b == 0x2C:  # image descriptor
            fx, fy, fw, fh = struct.unpack("<HHHH", payload[i + 1 : i + 9])
            fpacked = payload[i + 9]
            i += 10
            if fpacked & 0x80:
                raise ValueError("local color tables unsupported")
            if fpacked & 0x40:
                raise ValueError("interlace unsupported")
            if (fx, fy, fw, fh) != (0, 0, w, h):
                raise ValueError("partial frames unsupported")
            min_code = payload[i]
            i += 1
            data = bytearray()
            while payload[i] != 0:
                n = payload[i]
                data += payload[i + 1 : i + 1 + n]
                i += 1 + n
            i += 1
            idx = _lzw_decode(bytes(data), min_code, w * h).reshape(h, w)
            if palette is None:
                raise ValueError("no color table")
            frames.append(palette[idx])
            delays.append(pending_delay)
            pending_delay = 0
        else:
            raise ValueError(f"unknown GIF block 0x{b:02x}")
    if not frames:
        raise ValueError("no frames")
    return frames, delays
