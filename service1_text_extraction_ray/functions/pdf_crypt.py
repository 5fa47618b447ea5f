"""PDF standard security handler (RC4 /V 1-2 /R 2-3, AES-128 /V 4 /R 4 and
AES-256 /V 5 /R 5-6).

From-scratch implementation of the public PDF 1.7 spec (ISO 32000-1 §7.6.2-
7.6.3) encryption algorithms the reference exercises through PyMuPDF
(``core_pdf_processor.py:220-354``: ``doc.needs_pass`` / ``doc.authenticate``
inside the <=3-attempt password loop):

- Algorithm 2: file encryption key from the (padded) user password.
- Algorithm 3: the /O (owner) entry — also used by the fixture writer.
- Algorithms 4/5: the /U (user) entry for /R 2 and /R 3-4.
- Algorithms 6/7: user / owner password verification.
- Per-object keys: md5(file_key + objnum[0:3] + gennum[0:2] [+ b"sAlT" for
  AESV2]) truncated to min(len+5, 16) — applied to stream bytes BEFORE the
  /Filter chain.
- AESV2 crypt filter (/V 4): AES-128-CBC per FIPS-197, IV prepended,
  PKCS#7 padding; the S-box is generated from the GF(2^8) definition and
  verified by the FIPS-197 Appendix C known-answer test.

Both sides (the parser's decrypt and ``synth.make_pdf``'s encrypt) use these
same functions, so fixture round-trips are exact by construction. AES-CBC,
and RC4 at the key lengths common PDFs use (5, 10 and 16 bytes), run
natively through ``cryptography``; the from-scratch ciphers here run the
other RC4 key lengths, stand in when it is missing, and are the reference
the known-answer tests pin it against. RC4 and AES-128 are kept for
*format compatibility* (the PDF spec itself deprecates RC4), not as a
security recommendation. /V 5 (AESV3: AES-256-CBC, SHA-2 handler, ISO
32000-2 §7.6.4) is implemented for both /R 5 (deprecated single-SHA-256)
and /R 6 (the iterated Algorithm 2.B hash): /U //UE //O //OE verification
and key unwrapping, /Perms validation, and direct-file-key stream
decryption (no per-object salting at /V 5). AES-256 shares the generated
S-box/key-schedule machinery below and is pinned by the FIPS-197 C.3
known-answer test.

Passwords are encoded latin-1 (PDFDocEncoding approximation — exact for the
ASCII passwords real queues carry and the fixtures emit).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional

# The 32-byte standard padding string (ISO 32000-1 Table 1, §7.6.3.3).
PAD = bytes(
    [
        0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
        0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
        0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
        0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
    ]
)


def rc4(key: bytes, data: bytes) -> bytes:
    """RC4 stream cipher (symmetric: encrypt == decrypt). Keys of a length
    the native cipher accepts (5, 7, 8, 10, 16, 20, 24 or 32 bytes; PDF uses
    5, 10 and 16) run natively, others on the pure-Python reference."""
    if _NativeARC4 is not None and len(key) * 8 in _NativeARC4.key_sizes:
        return _NativeCipher(_NativeARC4(key), None).encryptor().update(data)
    return _rc4_python(key, data)


def _rc4_python(key: bytes, data: bytes) -> bytes:
    S = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + S[i] + key[i % klen]) & 0xFF
        S[i], S[j] = S[j], S[i]
    out = bytearray(len(data))
    i = j = 0
    for n, c in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + S[i]) & 0xFF
        S[i], S[j] = S[j], S[i]
        out[n] = c ^ S[(S[i] + S[j]) & 0xFF]
    return bytes(out)


def pad_password(password: bytes) -> bytes:
    """Truncate-or-pad to exactly 32 bytes (Algorithm 2 step a)."""
    return (password + PAD)[:32]


def compute_encryption_key(
    password: bytes, o_entry: bytes, p: int, id0: bytes, key_len: int, r: int
) -> bytes:
    """Algorithm 2: the file encryption key.

    ``password`` is the raw (unpadded) user password — or an already-padded
    32-byte string recovered from /O during owner authentication (padding a
    32-byte input is the identity, so both call shapes work).
    """
    h = hashlib.md5()
    h.update(pad_password(password))
    h.update(o_entry[:32])
    h.update(struct.pack("<i", p))
    h.update(id0)
    digest = h.digest()
    if r >= 3:
        for _ in range(50):
            digest = hashlib.md5(digest[:key_len]).digest()
    return digest[:key_len]


def compute_o_entry(owner_pw: bytes, user_pw: bytes, key_len: int, r: int) -> bytes:
    """Algorithm 3: the /O dictionary entry (fixture-writer side)."""
    digest = hashlib.md5(pad_password(owner_pw or user_pw)).digest()
    if r >= 3:
        for _ in range(50):
            digest = hashlib.md5(digest).digest()
    key = digest[:key_len]
    o = rc4(key, pad_password(user_pw))
    if r >= 3:
        for i in range(1, 20):
            o = rc4(bytes(b ^ i for b in key), o)
    return o


def compute_u_entry(file_key: bytes, id0: bytes, r: int) -> bytes:
    """Algorithm 4 (/R 2) or 5 (/R 3): the /U dictionary entry."""
    if r == 2:
        return rc4(file_key, PAD)
    digest = hashlib.md5(PAD + id0).digest()
    u = rc4(file_key, digest)
    for i in range(1, 20):
        u = rc4(bytes(b ^ i for b in file_key), u)
    return u + b"\x00" * 16  # 16 bytes of arbitrary padding per the spec


def authenticate_user_password(
    password: bytes, o_entry: bytes, u_entry: bytes, p: int, id0: bytes,
    key_len: int, r: int,
) -> Optional[bytes]:
    """Algorithm 6: verify a user password; return the file key on success."""
    key = compute_encryption_key(password, o_entry, p, id0, key_len, r)
    expect = compute_u_entry(key, id0, r)
    if r == 2:
        ok = expect[:32] == u_entry[:32]
    else:
        ok = expect[:16] == u_entry[:16]
    return key if ok else None


def authenticate_owner_password(
    password: bytes, o_entry: bytes, u_entry: bytes, p: int, id0: bytes,
    key_len: int, r: int,
) -> Optional[bytes]:
    """Algorithm 7: verify an owner password by recovering the padded user
    password from /O, then running user verification on it."""
    digest = hashlib.md5(pad_password(password)).digest()
    if r >= 3:
        for _ in range(50):
            digest = hashlib.md5(digest).digest()
    rc4_key = digest[:key_len]
    if r == 2:
        user_padded = rc4(rc4_key, o_entry)
    else:
        user_padded = o_entry
        for i in range(19, -1, -1):
            user_padded = rc4(bytes(b ^ i for b in rc4_key), user_padded)
    return authenticate_user_password(
        user_padded, o_entry, u_entry, p, id0, key_len, r
    )


def object_key(file_key: bytes, num: int, gen: int, aes: bool = False) -> bytes:
    """Per-object key (§7.6.2 Algorithm 1, steps a-c; AESV2 appends the
    spec's literal ``sAlT`` bytes before hashing)."""
    ext = (
        file_key
        + struct.pack("<i", num)[:3]
        + struct.pack("<i", gen)[:2]
        + (b"sAlT" if aes else b"")
    )
    return hashlib.md5(ext).digest()[: min(len(file_key) + 5, 16)]


def crypt_object_bytes(file_key: bytes, num: int, gen: int, data: bytes) -> bytes:
    """Encrypt/decrypt one object's stream (or string) bytes (RC4 /V 1-2)."""
    return rc4(object_key(file_key, num, gen), data)


# ---------------------------------------------------------------------------
# AES-128 (FIPS-197) from scratch — the /V 4 /CFM AESV2 crypt filter
# (ISO 32000-1 §7.6.2: CBC, 16-byte random IV prepended, PKCS#7 padding).
# The S-box is GENERATED from the public definition (GF(2^8) inverse + affine
# transform) rather than transcribed, and verified by the FIPS-197 Appendix C
# known-answer test in tests/test_pdf_crypt.py. The writer side encrypts one
# block at a time (fixtures are small); the parser side decrypts all blocks
# of a stream at once with numpy (CBC decryption is block-parallel), keeping
# the hot path vectorized.
# ---------------------------------------------------------------------------


def _build_aes_tables():
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by 3 (generator) in GF(2^8) mod 0x11B
        x ^= ((x << 1) ^ (0x11B if x & 0x80 else 0)) & 0x1FF
        x &= 0xFF
    for i in range(255, 510):
        exp[i] = exp[i - 255]

    def _rotl8(b: int, n: int) -> int:
        return ((b << n) | (b >> (8 - n))) & 0xFF

    sbox = [0] * 256
    for c in range(256):
        inv = 0 if c == 0 else exp[255 - log[c]]
        sbox[c] = (
            inv ^ _rotl8(inv, 1) ^ _rotl8(inv, 2) ^ _rotl8(inv, 3) ^ _rotl8(inv, 4) ^ 0x63
        )
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i

    def gmul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return exp[log[a] + log[b]]

    # 256-entry multiply tables for the fixed Mix/InvMix coefficients
    mul = {m: bytes(gmul(m, x) for x in range(256)) for m in (2, 3, 9, 11, 13, 14)}
    return bytes(sbox), bytes(inv_sbox), mul


_SBOX, _INV_SBOX, _GMUL = _build_aes_tables()
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# ShiftRows / InvShiftRows as flat-index permutations of the column-major
# 4x4 state (index = row + 4*col).
_SHIFT = tuple((r + 4 * ((c + r) % 4)) for c in range(4) for r in range(4))
_INV_SHIFT = tuple((r + 4 * ((c - r) % 4)) for c in range(4) for r in range(4))


def aes_key_schedule(key: bytes) -> bytes:
    """Expanded key for AES-128 or AES-256: (Nr+1) round keys x 16 bytes
    (FIPS-197 §5.2; Nr = Nk + 6, and for Nk=8 every word with i % 8 == 4
    gets SubWord without the rotation)."""
    if len(key) not in (16, 32):
        raise ValueError("AES key must be 16 or 32 bytes")
    nk = len(key) // 4
    nr = nk + 6
    w = bytearray(key)
    for i in range(nk, 4 * (nr + 1)):
        t = bytearray(w[4 * (i - 1) : 4 * i])
        if i % nk == 0:
            t = t[1:] + t[:1]  # RotWord
            t = bytearray(_SBOX[b] for b in t)  # SubWord
            t[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            t = bytearray(_SBOX[b] for b in t)  # SubWord only
        prev = w[4 * (i - nk) : 4 * (i - nk) + 4]
        w += bytes(a ^ b for a, b in zip(t, prev))
    return bytes(w)


def aes_encrypt_block(ks: bytes, block: bytes) -> bytes:
    """One-block AES encryption for any expanded key length (writer side +
    known-answer tests)."""
    nr = len(ks) // 16 - 1
    s = bytearray(a ^ b for a, b in zip(block, ks[:16]))
    m2, m3 = _GMUL[2], _GMUL[3]
    for rnd in range(1, nr):
        s = bytearray(_SBOX[b] for b in s)        # SubBytes
        s = bytearray(s[_SHIFT[i]] for i in range(16))  # ShiftRows
        t = bytearray(16)                          # MixColumns
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c : 4 * c + 4]
            t[4 * c + 0] = m2[a0] ^ m3[a1] ^ a2 ^ a3
            t[4 * c + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
            t[4 * c + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
            t[4 * c + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
        rk = ks[16 * rnd : 16 * rnd + 16]
        s = bytearray(a ^ b for a, b in zip(t, rk))
    s = bytearray(_SBOX[b] for b in s)
    s = bytearray(s[_SHIFT[i]] for i in range(16))
    return bytes(a ^ b for a, b in zip(s, ks[16 * nr : 16 * nr + 16]))


def _aes128_decrypt_blocks(ks: bytes, blocks):
    """Vectorized inverse cipher over an (n, 16) uint8 ndarray of blocks
    (any key size — round count comes from the expanded-key length)."""
    import numpy as np

    sbox_inv = np.frombuffer(_INV_SBOX, dtype=np.uint8)
    m9 = np.frombuffer(_GMUL[9], dtype=np.uint8)
    m11 = np.frombuffer(_GMUL[11], dtype=np.uint8)
    m13 = np.frombuffer(_GMUL[13], dtype=np.uint8)
    m14 = np.frombuffer(_GMUL[14], dtype=np.uint8)
    inv_shift = np.array(_INV_SHIFT, dtype=np.int64)
    rks = np.frombuffer(ks, dtype=np.uint8).reshape(-1, 16)
    nr = rks.shape[0] - 1

    s = blocks ^ rks[nr]
    for rnd in range(nr - 1, 0, -1):
        s = s[:, inv_shift]          # InvShiftRows
        s = sbox_inv[s]              # InvSubBytes
        s = s ^ rks[rnd]             # AddRoundKey
        t = np.empty_like(s)         # InvMixColumns
        for c in range(4):
            a0 = s[:, 4 * c + 0]
            a1 = s[:, 4 * c + 1]
            a2 = s[:, 4 * c + 2]
            a3 = s[:, 4 * c + 3]
            t[:, 4 * c + 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
            t[:, 4 * c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
            t[:, 4 * c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
            t[:, 4 * c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
        s = t
    s = s[:, inv_shift]
    s = sbox_inv[s]
    return s ^ rks[0]


try:  # Native AES fast path: the CBC chain is sequential, so a pure-Python
    # cipher makes the R6 hash (>=64 chained CBC rounds, Algorithm 2.B) cost
    # seconds per password attempt. `cryptography` (OpenSSL) brings that to
    # sub-millisecond; the pure-Python path below stays as the from-scratch
    # reference and the fallback, and both are pinned by the same FIPS-197
    # known-answer tests (tests/test_pdf_crypt.py asserts they agree).
    #
    # Import the classes, not the ``algorithms`` / ``modes`` modules:
    # cryptography wraps those modules in a deprecation proxy that
    # cloudpickle cannot pickle by value, and this module ships to Ray
    # workers by value (ensure_worker_importable).
    from cryptography.hazmat.primitives.ciphers import Cipher as _NativeCipher
    from cryptography.hazmat.primitives.ciphers.algorithms import AES as _NativeAES
    from cryptography.hazmat.primitives.ciphers.modes import CBC as _NativeCBC
except ImportError:  # pragma: no cover - baked into this environment
    _NativeCipher = None

try:  # Native RC4: pure-Python RC4 was ~8% of pdf parse time, mostly the
    # password trials. Same class-not-module import rule as above.
    from cryptography.hazmat.decrepit.ciphers.algorithms import ARC4 as _NativeARC4
except ImportError:  # pragma: no cover - baked into this environment
    _NativeARC4 = None


def _native_cbc(key: bytes, iv: bytes, data: bytes, encrypt: bool) -> Optional[bytes]:
    if _NativeCipher is None:
        return None
    c = _NativeCipher(_NativeAES(key), _NativeCBC(iv))
    ctx = c.encryptor() if encrypt else c.decryptor()
    return ctx.update(data) + ctx.finalize()


def aes_cbc_encrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw AES-CBC over whole blocks (no padding, no iv prefix) — the
    primitive the R6 hash (Algorithm 2.B) and /UE //OE key wrapping use."""
    if len(data) % 16:
        raise ValueError("no-pad CBC needs whole blocks")
    native = _native_cbc(key, iv, data, encrypt=True)
    if native is not None:
        return native
    ks = aes_key_schedule(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i : i + 16], prev))
        prev = aes_encrypt_block(ks, block)
        out += prev
    return bytes(out)


def aes_cbc_decrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Inverse of aes_cbc_encrypt_nopad."""
    import numpy as np

    if not data or len(data) % 16:
        raise ValueError("no-pad CBC needs whole blocks")
    native = _native_cbc(key, iv, data, encrypt=False)
    if native is not None:
        return native
    ks = aes_key_schedule(key)
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
    ivarr = np.frombuffer(iv, dtype=np.uint8).reshape(1, 16)
    prevs = np.concatenate([ivarr, arr[:-1]])
    return (_aes128_decrypt_blocks(ks, arr) ^ prevs).tobytes()


def aes_cbc_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """AES-CBC (128 or 256 by key size) with PKCS#7 padding; returns
    iv + ciphertext (the PDF AESV2/AESV3 stored layout)."""
    pad_n = 16 - (len(data) % 16)
    data = data + bytes([pad_n]) * pad_n
    return iv + aes_cbc_encrypt_nopad(key, iv, data)


def aes_cbc_decrypt(key: bytes, data: bytes) -> bytes:
    """Inverse of aes_cbc_encrypt: data = iv + ciphertext; strips padding.
    Block-parallel via numpy (D(c_i) ^ c_{i-1})."""
    if len(data) < 32 or len(data) % 16:
        raise ValueError("AES-CBC data must be iv + non-empty whole blocks")
    out = aes_cbc_decrypt_nopad(key, data[:16], data[16:])
    pad_n = out[-1]
    if not 1 <= pad_n <= 16:
        raise ValueError("bad AES-CBC padding")
    return out[:-pad_n]


def crypt_object_bytes_aes(
    file_key: bytes, num: int, gen: int, data: bytes, iv: bytes
) -> bytes:
    """Encrypt one object's bytes with the AESV2 crypt filter (writer side;
    the fixture writer passes a deterministic IV so corpora are seed-pure)."""
    return aes_cbc_encrypt(object_key(file_key, num, gen, aes=True), iv, data)


def decrypt_object_bytes_aes(file_key: bytes, num: int, gen: int, data: bytes) -> bytes:
    """Decrypt one object's AESV2 bytes (parser side)."""
    return aes_cbc_decrypt(object_key(file_key, num, gen, aes=True), data)


# ---------------------------------------------------------------------------
# /V 5 (AES-256) — ISO 32000-2 §7.6.4: /R 5 (deprecated AESV3) and /R 6
# ---------------------------------------------------------------------------


def _hash_r6(password: bytes, salt: bytes, udata: bytes, r: int) -> bytes:
    """Password hash for /R 5 (one SHA-256) and /R 6 (Algorithm 2.B: the
    iterated SHA-256/384/512 + AES-128-CBC mixing loop — at least 64
    rounds, then until the last byte of E is <= round - 32)."""
    import hashlib

    k = hashlib.sha256(password + salt + udata).digest()
    if r == 5:
        return k
    round_number = 0
    while True:
        round_number += 1
        k1 = (password + k + udata) * 64
        e = aes_cbc_encrypt_nopad(k[:16], k[16:32], k1)
        mod = sum(e[:16]) % 3
        k = (hashlib.sha256, hashlib.sha384, hashlib.sha512)[mod](e).digest()
        if round_number >= 64 and e[-1] <= round_number - 32:
            return k[:32]


def _clip_pw_v5(password: bytes) -> bytes:
    """/V 5 passwords are UTF-8, truncated to 127 bytes (Algorithm 2.A;
    SASLprep normalization is out of subset — ASCII deployment passwords
    are unaffected)."""
    return password[:127]


def authenticate_user_password_v5(
    password: bytes, u_entry: bytes, ue_entry: bytes, r: int
) -> "Optional[bytes]":
    """Algorithm 11 + 8.1: verify against /U (hash + validation salt + key
    salt) and unwrap the 32-byte file key from /UE."""
    if len(u_entry) < 48 or len(ue_entry) < 32:
        return None
    pw = _clip_pw_v5(password)
    vsalt, ksalt = u_entry[32:40], u_entry[40:48]
    if _hash_r6(pw, vsalt, b"", r) != u_entry[:32]:
        return None
    ikey = _hash_r6(pw, ksalt, b"", r)
    return aes_cbc_decrypt_nopad(ikey, b"\x00" * 16, ue_entry[:32])


def authenticate_owner_password_v5(
    password: bytes, o_entry: bytes, u_entry: bytes, oe_entry: bytes, r: int
) -> "Optional[bytes]":
    """Algorithm 12 + 9.1: the owner hash salts include the full 48-byte
    /U string as udata."""
    if len(o_entry) < 48 or len(u_entry) < 48 or len(oe_entry) < 32:
        return None
    pw = _clip_pw_v5(password)
    vsalt, ksalt = o_entry[32:40], o_entry[40:48]
    if _hash_r6(pw, vsalt, u_entry[:48], r) != o_entry[:32]:
        return None
    ikey = _hash_r6(pw, ksalt, u_entry[:48], r)
    return aes_cbc_decrypt_nopad(ikey, b"\x00" * 16, oe_entry[:32])


def make_v5_entries(
    user_pw: bytes, owner_pw: bytes, file_key: bytes, salt_seed: bytes, r: int, p: int
) -> dict:
    """Writer side (Algorithms 8-10): build /U //UE //O //OE //Perms for a
    chosen 32-byte file key. Salts are derived from ``salt_seed`` so
    fixtures stay pure functions of the corpus seed."""
    import hashlib

    def salt(tag: bytes) -> bytes:
        return hashlib.sha256(b"graft-v5-salt" + tag + salt_seed).digest()[:8]

    upw, opw = _clip_pw_v5(user_pw), _clip_pw_v5(owner_pw)
    uv, uk = salt(b"uv"), salt(b"uk")
    u_entry = _hash_r6(upw, uv, b"", r) + uv + uk
    ue = aes_cbc_encrypt_nopad(_hash_r6(upw, uk, b"", r), b"\x00" * 16, file_key)
    ov, ok = salt(b"ov"), salt(b"ok")
    o_entry = _hash_r6(opw, ov, u_entry, r) + ov + ok
    oe = aes_cbc_encrypt_nopad(_hash_r6(opw, ok, u_entry, r), b"\x00" * 16, file_key)
    perms_plain = (
        (p & 0xFFFFFFFF).to_bytes(4, "little")
        + b"\xff\xff\xff\xff" + b"T" + b"adb"
        + hashlib.sha256(b"graft-v5-perms" + salt_seed).digest()[:4]
    )
    perms = aes_cbc_encrypt_nopad(file_key, b"\x00" * 16, perms_plain)
    return {"u": u_entry, "ue": ue, "o": o_entry, "oe": oe, "perms": perms}


def verify_perms_v5(file_key: bytes, perms_entry: bytes, p: int) -> bool:
    """Algorithm 13: decrypt /Perms (AES-ECB == one-block CBC with zero IV
    here since the entry is exactly 16 bytes) and check the 'adb' marker
    and the /P echo."""
    if len(perms_entry) < 16:
        return False
    plain = aes_cbc_decrypt_nopad(file_key, b"\x00" * 16, perms_entry[:16])
    return plain[9:12] == b"adb" and plain[:4] == (p & 0xFFFFFFFF).to_bytes(4, "little")


def decrypt_object_bytes_aes256(file_key: bytes, data: bytes) -> bytes:
    """/V 5 stream/string decryption: AES-256-CBC with the FILE key
    directly — no per-object MD5 salting (ISO 32000-2 §7.6.3.3)."""
    return aes_cbc_decrypt(file_key, data)


def crypt_object_bytes_aes256(file_key: bytes, data: bytes, iv: bytes) -> bytes:
    """Writer side of decrypt_object_bytes_aes256 (deterministic IV)."""
    return aes_cbc_encrypt(file_key, iv, data)
