"""Unit tests for the standard-security-handler crypto (functions/pdf_crypt.py)."""

import pytest

from service1_text_extraction_ray.functions.pdf_crypt import (
    PAD,
    authenticate_owner_password,
    authenticate_user_password,
    compute_encryption_key,
    compute_o_entry,
    compute_u_entry,
    crypt_object_bytes,
    object_key,
    pad_password,
    rc4,
    _rc4_python,
)


class TestRC4:
    # Public RC4 test vectors (widely published reference values).
    @pytest.mark.parametrize(
        "key,plain,cipher_hex",
        [
            (b"Key", b"Plaintext", "bbf316e8d940af0ad3"),
            (b"Wiki", b"pedia", "1021bf0420"),
            (b"Secret", b"Attack at dawn", "45a01f645fc35b383552544b9bf5"),
        ],
    )
    def test_known_vectors(self, key, plain, cipher_hex):
        assert rc4(key, plain).hex() == cipher_hex

    def test_symmetric(self):
        data = bytes(range(256)) * 3
        assert rc4(b"k" * 5, rc4(b"k" * 5, data)) == data

    @pytest.mark.parametrize("n_data", [0, 1, 4096])
    def test_native_matches_python_at_every_key_length(self, n_data):
        # Native for the key lengths OpenSSL accepts, Python for the rest:
        # one cipher either way.
        data = bytes((7 * i + 3) & 0xFF for i in range(n_data))
        for n_key in range(1, 33):
            key = bytes((31 * i + n_key) & 0xFF for i in range(n_key))
            assert rc4(key, data) == _rc4_python(key, data), n_key

    def test_pdf_key_lengths_run_natively(self, monkeypatch):
        from service1_text_extraction_ray.functions import pdf_crypt

        def python_path(key, data):
            raise AssertionError(f"{len(key)}-byte key took the Python path")

        monkeypatch.setattr(pdf_crypt, "_rc4_python", python_path)
        for n_key in (5, 10, 16):
            assert rc4(b"k" * n_key, b"data") == _rc4_python(b"k" * n_key, b"data")


class TestPadding:
    def test_pad_short(self):
        assert pad_password(b"ab") == b"ab" + PAD[:30]

    def test_pad_exact_32_identity(self):
        p = bytes(range(32))
        assert pad_password(p) == p

    def test_pad_truncates(self):
        assert pad_password(b"x" * 40) == b"x" * 32


class TestHandler:
    def _entries(self, user, owner, key_len, r):
        p = -44
        id0 = b"0123456789abcdef"
        o = compute_o_entry(owner, user, key_len, r)
        key = compute_encryption_key(user, o, p, id0, key_len, r)
        u = compute_u_entry(key, id0, r)
        return o, u, p, id0, key

    @pytest.mark.parametrize("key_len,r", [(5, 2), (16, 3)])
    def test_user_auth_roundtrip(self, key_len, r):
        o, u, p, id0, key = self._entries(b"user-pw", b"owner-pw", key_len, r)
        got = authenticate_user_password(b"user-pw", o, u, p, id0, key_len, r)
        assert got == key
        assert authenticate_user_password(b"wrong", o, u, p, id0, key_len, r) is None

    @pytest.mark.parametrize("key_len,r", [(5, 2), (16, 3)])
    def test_owner_auth_recovers_key(self, key_len, r):
        o, u, p, id0, key = self._entries(b"user-pw", b"owner-pw", key_len, r)
        got = authenticate_owner_password(b"owner-pw", o, u, p, id0, key_len, r)
        assert got == key
        assert authenticate_owner_password(b"wrong", o, u, p, id0, key_len, r) is None

    def test_empty_user_password_authenticates_as_empty(self):
        o, u, p, id0, key = self._entries(b"", b"owner", 5, 2)
        assert authenticate_user_password(b"", o, u, p, id0, 5, 2) == key

    def test_u_entry_r3_length(self):
        _, u, *_ = self._entries(b"x", b"y", 16, 3)
        assert len(u) == 32  # 16 significant + 16 padding

    def test_object_key_truncation(self):
        # RC4-40: 5-byte file key -> 10-byte object key; RC4-128 caps at 16.
        assert len(object_key(b"12345", 7, 0)) == 10
        assert len(object_key(b"0123456789abcdef", 7, 0)) == 16

    def test_object_crypt_roundtrip_and_key_separation(self):
        fk = b"0123456789abcdef"
        data = b"BT /F1 12 Tf (hello) Tj ET" * 10
        enc = crypt_object_bytes(fk, 4, 0, data)
        assert crypt_object_bytes(fk, 4, 0, enc) == data
        # a different object number must not decrypt
        assert crypt_object_bytes(fk, 5, 0, enc) != data


class TestAES:
    def test_fips197_known_answer(self):
        """FIPS-197 Appendix C.1 (AES-128) — validates the generated S-box,
        key schedule, and both cipher directions."""
        from service1_text_extraction_ray.functions.pdf_crypt import (
            _aes128_decrypt_blocks,
            aes_encrypt_block,
            aes_key_schedule,
        )
        import numpy as np

        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ks = aes_key_schedule(key)
        ct = aes_encrypt_block(ks, pt)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
        back = _aes128_decrypt_blocks(ks, np.frombuffer(ct, np.uint8).reshape(1, 16))
        assert back.tobytes() == pt

    def test_fips197_c3_aes256_known_answer(self):
        """FIPS-197 Appendix C.3 (AES-256) — validates the Nk=8 key
        schedule (extra SubWord at i % 8 == 4) and the 14-round cipher."""
        from service1_text_extraction_ray.functions.pdf_crypt import (
            aes_encrypt_block,
            aes_key_schedule,
        )

        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ks = aes_key_schedule(key)
        assert len(ks) == 15 * 16
        assert aes_encrypt_block(ks, pt).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_native_and_pure_cbc_agree(self):
        """The OpenSSL fast path and the from-scratch AES must produce
        identical CBC bytes for both key sizes and both directions."""
        import service1_text_extraction_ray.functions.pdf_crypt as pc

        if pc._NativeCipher is None:
            pytest.skip("cryptography not available")
        data = bytes(range(256)) * 2  # 32 blocks
        iv = bytes(range(16))
        for key in (b"0123456789abcdef", bytes(range(32))):
            ks = pc.aes_key_schedule(key)
            pure_enc = bytearray()
            prev = iv
            for i in range(0, len(data), 16):
                block = bytes(a ^ b for a, b in zip(data[i : i + 16], prev))
                prev = pc.aes_encrypt_block(ks, block)
                pure_enc += prev
            native_enc = pc._native_cbc(key, iv, data, encrypt=True)
            assert bytes(pure_enc) == native_enc
            assert pc._native_cbc(key, iv, native_enc, encrypt=False) == data

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 1000])
    def test_cbc_roundtrip_all_padding_lengths(self, n):
        from service1_text_extraction_ray.functions.pdf_crypt import (
            aes_cbc_decrypt,
            aes_cbc_encrypt,
        )

        key, iv = b"0123456789abcdef", bytes(range(16))
        data = bytes(range(256))[:n] if n <= 256 else None
        data = (b"x" * n) if data is None else data
        enc = aes_cbc_encrypt(key, iv, data)
        assert enc[:16] == iv and len(enc) % 16 == 0
        assert aes_cbc_decrypt(key, enc) == data

    def test_aes_object_key_uses_salt(self):
        from service1_text_extraction_ray.functions.pdf_crypt import object_key

        fk = b"0123456789abcdef"
        assert object_key(fk, 4, 0, aes=True) != object_key(fk, 4, 0, aes=False)

    def test_aes_object_roundtrip(self):
        from service1_text_extraction_ray.functions.pdf_crypt import (
            crypt_object_bytes_aes,
            decrypt_object_bytes_aes,
        )

        fk = b"0123456789abcdef"
        data = b"BT /F1 12 Tf (aes page) Tj ET" * 17
        iv = bytes(16)
        enc = crypt_object_bytes_aes(fk, 4, 0, data, iv)
        assert decrypt_object_bytes_aes(fk, 4, 0, enc) == data
        with pytest.raises(ValueError):
            decrypt_object_bytes_aes(fk, 4, 0, enc[:24])  # not whole blocks


class TestAesPdfFixtures:
    """AESV2-encrypted fixture PDFs round-trip through the real parser."""

    def _pages(self):
        return [["hello aes world", "line two of page one"], ["page two line"]]

    def _plain_text(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        plain = make_pdf(self._pages(), random.Random(7))
        return "\n".join(p.text for p in parse_pdf(plain))

    @pytest.mark.parametrize("compress", [False, True])
    def test_v4_user_and_owner_auth_byte_identical_text(self, compress):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import open_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        expected = self._plain_text()
        enc = make_pdf(
            self._pages(), random.Random(7), compress=compress,
            encrypt={"user_pw": "s3cret", "owner_pw": "own", "v": 4},
        )
        assert b"/CFM /AESV2" in enc
        for pw in ("s3cret", "own"):
            doc = open_pdf(enc)
            assert doc.needs_pass
            assert doc.authenticate(pw)
            assert "\n".join(p.text for p in doc.extract_pages()) == expected
        bad = open_pdf(enc)
        assert not bad.authenticate("wrong")

    def test_v4_empty_user_password_opens_transparently(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import open_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        enc = make_pdf(
            self._pages(), random.Random(7),
            encrypt={"user_pw": "", "owner_pw": "own", "v": 4},
        )
        doc = open_pdf(enc)
        assert not doc.needs_pass
        assert "\n".join(p.text for p in doc.extract_pages()) == self._plain_text()

    def test_v5_without_ue_oe_counted_unsupported(self):
        """A /V 5 dictionary missing /UE or /OE (e.g. a /V 4 file whose
        version entries were tampered) is a counted parse failure."""
        import random

        from service1_text_extraction_ray.functions.pdf_extract import (
            PdfParseError,
            open_pdf,
        )
        from service1_text_extraction_ray.functions.synth import make_pdf

        enc = make_pdf(
            self._pages(), random.Random(7),
            encrypt={"user_pw": "x", "owner_pw": "y", "v": 4},
        )
        tampered = enc.replace(b"/V 4 /R 4", b"/V 5 /R 6")
        with pytest.raises(PdfParseError):
            open_pdf(tampered)


class TestV5Handler:
    """ISO 32000-2 §7.6.4 — AES-256 handler unit round-trips (writer
    entries from make_v5_entries, parser side the authenticate_*_v5)."""

    def _entries(self, r):
        from service1_text_extraction_ray.functions.pdf_crypt import make_v5_entries

        file_key = bytes(range(32))
        ents = make_v5_entries(b"usr", b"own", file_key, b"seed", r, -44)
        return file_key, ents

    @pytest.mark.parametrize("r", [5, 6])
    def test_user_auth_unwraps_file_key(self, r):
        from service1_text_extraction_ray.functions.pdf_crypt import (
            authenticate_user_password_v5,
        )

        file_key, e = self._entries(r)
        assert authenticate_user_password_v5(b"usr", e["u"], e["ue"], r) == file_key
        assert authenticate_user_password_v5(b"nope", e["u"], e["ue"], r) is None

    @pytest.mark.parametrize("r", [5, 6])
    def test_owner_auth_unwraps_file_key(self, r):
        from service1_text_extraction_ray.functions.pdf_crypt import (
            authenticate_owner_password_v5,
        )

        file_key, e = self._entries(r)
        assert (
            authenticate_owner_password_v5(b"own", e["o"], e["u"], e["oe"], r)
            == file_key
        )
        assert authenticate_owner_password_v5(b"usr", e["o"], e["u"], e["oe"], r) is None

    @pytest.mark.parametrize("r", [5, 6])
    def test_perms_validates_and_detects_tamper(self, r):
        from service1_text_extraction_ray.functions.pdf_crypt import verify_perms_v5

        file_key, e = self._entries(r)
        assert verify_perms_v5(file_key, e["perms"], -44)
        assert not verify_perms_v5(file_key, e["perms"], -4)  # /P swapped
        assert not verify_perms_v5(bytes(32), e["perms"], -44)  # wrong key

    def test_pw_clipped_to_127_utf8_bytes(self):
        from service1_text_extraction_ray.functions.pdf_crypt import (
            authenticate_user_password_v5,
            make_v5_entries,
        )

        long_pw = ("p" * 200).encode()
        ents = make_v5_entries(long_pw, b"o", bytes(32), b"s", 6, -44)
        assert (
            authenticate_user_password_v5(long_pw[:127], ents["u"], ents["ue"], 6)
            == bytes(32)
        )


class TestV5PdfFixtures:
    """AES-256 (/V 5) encrypted fixture PDFs round-trip through the parser."""

    def _pages(self):
        return [["hello aes256 world", "line two of page one"], ["page two line"]]

    def _plain_text(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import parse_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        plain = make_pdf(self._pages(), random.Random(11))
        return "\n".join(p.text for p in parse_pdf(plain))

    @pytest.mark.parametrize("r", [5, 6])
    @pytest.mark.parametrize("compress", [False, True])
    def test_v5_user_and_owner_auth_byte_identical_text(self, r, compress):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import open_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        expected = self._plain_text()
        enc = make_pdf(
            self._pages(), random.Random(11), compress=compress,
            encrypt={"user_pw": "s3cret", "owner_pw": "own", "v": 5, "r": r},
        )
        assert b"/CFM /AESV3" in enc and b"/UE <" in enc
        for pw in ("s3cret", "own"):
            doc = open_pdf(enc)
            assert doc.needs_pass
            assert doc.authenticate(pw)
            assert "\n".join(p.text for p in doc.extract_pages()) == expected
        bad = open_pdf(enc)
        assert not bad.authenticate("wrong")

    def test_v5_empty_user_password_opens_transparently(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import open_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        enc = make_pdf(
            self._pages(), random.Random(11),
            encrypt={"user_pw": "", "owner_pw": "own", "v": 5},
        )
        doc = open_pdf(enc)
        assert not doc.needs_pass
        assert "\n".join(p.text for p in doc.extract_pages()) == self._plain_text()

    def test_v5_objstm_layout_roundtrips(self):
        import random

        from service1_text_extraction_ray.functions.pdf_extract import open_pdf
        from service1_text_extraction_ray.functions.synth import make_pdf

        enc = make_pdf(
            self._pages(), random.Random(11), objstm=True,
            encrypt={"user_pw": "pw", "owner_pw": "own", "v": 5, "r": 6},
        )
        doc = open_pdf(enc)
        assert doc.authenticate("pw")
        assert "\n".join(p.text for p in doc.extract_pages()) == self._plain_text()

    def test_v5_tampered_perms_is_parse_failure(self):
        import random
        import re

        from service1_text_extraction_ray.functions.pdf_extract import (
            PdfParseError,
            open_pdf,
        )
        from service1_text_extraction_ray.functions.synth import make_pdf

        enc = make_pdf(
            self._pages(), random.Random(11),
            encrypt={"user_pw": "pw", "owner_pw": "own", "v": 5, "r": 6},
        )
        m = re.search(rb"/Perms <([0-9a-f]+)>", enc)
        assert m is not None
        flipped = bytearray.fromhex(m.group(1).decode())
        flipped[0] ^= 0xFF
        tampered = enc.replace(m.group(0), b"/Perms <" + flipped.hex().encode() + b">")
        doc = open_pdf(tampered)
        with pytest.raises(PdfParseError):
            doc.authenticate("pw")
