"""A2/J2 parity: ordered password-candidate chain and the attempt cap."""

import random

from service1_text_extraction_ray.functions import extract as X
from service1_text_extraction_ray.functions.passwords import (
    MAX_ATTEMPTS,
    password_candidates,
)
from service1_text_extraction_ray.functions.synth import make_pdf


class TestCandidateChain:
    def test_full_order(self):
        got = password_candidates("u://d1", saved={"u://d1": "sav"}, default="dflt")
        assert got == ["sav", "dflt", None]

    def test_dedup_keeps_first_occurrence(self):
        got = password_candidates("u://d1", saved={"u://d1": "same"}, default="same")
        assert got == ["same", None]

    def test_none_tail_always_present(self):
        assert password_candidates("u://d1") == [None]

    def test_missing_sources_skipped(self):
        got = password_candidates("u://d1", saved={"u://other": "x"}, default="d")
        assert got == ["d", None]


class TestPasswordBook:
    """The book is ExtractConfig's saved map and default, fixed for a job."""

    def test_attempt_cap(self, monkeypatch):
        """The PDF attempt loop tries at most MAX_ATTEMPTS candidates, like
        the reference's 3-attempt enhanced path, however long the chain."""
        monkeypatch.setattr(X, "password_candidates",
                            lambda key, saved, default: ["w1", "w2", "w3", "w4", None])
        payload = make_pdf([["locked page"]], random.Random(0),
                           encrypt={"user_pw": "right", "owner_pw": "o", "v": 2})
        res = X.extract_document("https://site1.example/x", payload, X.ExtractConfig())
        assert res["password_required"] and res["status"] == "parse_failure"
        assert res["attempts_made"] == MAX_ATTEMPTS
