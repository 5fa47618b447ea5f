"""robots.txt parsing and crawl-allow evaluation (RFC 9309 subset).

The reference repo has no crawler, but the engine's web-corpus side
(extract_outlinks -> host_pagerank -> frontier_scores -> host_crawl_budget)
is a crawl stack, and the step every real crawler runs between scoring and
fetching is the robots-exclusion gate. This module implements the REP
semantics that matter for that gate:

- group selection: the group whose ``User-agent`` line best matches the
  crawler's product token wins (case-insensitive exact token here; ``*`` is
  the fallback group). Multiple consecutive ``User-agent`` lines share one
  group; a group ends at the next ``User-agent`` that follows at least one
  rule line.
- rule matching: ``Allow``/``Disallow`` values are PATH PREFIX patterns;
  ``*`` matches any character run (including empty), a trailing ``$``
  anchors the match at the end of the path.
- precedence: the matching rule with the LONGEST pattern wins; on a length
  tie, ``Allow`` wins. No matching rule (or an empty pattern) means allow.

No network exists in this sandbox, so corpus robots.txt bodies are
synthesized per host by ``make_robots_txt`` — a pure function of the host
string whose rule set is simple enough for the DuckDB oracle to replay
(the parser itself is exercised on the full semantics in unit tests).
"""

from __future__ import annotations

import re
from typing import List, Tuple

# (allow, pattern, pattern_len) — pattern_len is the precedence key
Rule = Tuple[bool, str, int]

AGENT = "graftbot"


def _pattern_regex(pattern: str) -> "re.Pattern[str]":
    anchored = pattern.endswith("$")
    body = pattern[:-1] if anchored else pattern
    rx = ".*".join(re.escape(part) for part in body.split("*"))
    return re.compile("^" + rx + ("$" if anchored else ""))


def parse_robots(text: str, agent: str = AGENT) -> List[Rule]:
    """Parse robots.txt and return the rule list of the group governing
    ``agent`` (specific-token group if present, else the ``*`` group)."""
    groups: List[Tuple[List[str], List[Rule]]] = []
    cur_agents: List[str] = []
    cur_rules: List[Rule] = []
    in_rules = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            if in_rules:
                groups.append((cur_agents, cur_rules))
                cur_agents, cur_rules, in_rules = [], [], False
            cur_agents.append(value.lower())
        elif field in ("allow", "disallow"):
            in_rules = True
            if value:  # an empty pattern matches nothing (RFC 9309 §2.2.2)
                cur_rules.append((field == "allow", value, len(value)))
        # other fields (crawl-delay, sitemap) end nothing and bind nothing
    if cur_agents or cur_rules:
        groups.append((cur_agents, cur_rules))

    agent = agent.lower()
    fallback: List[Rule] = []
    for agents, rules in groups:
        if agent in agents:
            return rules
        if "*" in agents:
            fallback = rules
    return fallback


def is_allowed(rules: List[Rule], path: str) -> bool:
    """Longest-match precedence; Allow wins length ties; default allow."""
    if not path.startswith("/"):
        path = "/" + path
    best_len = -1
    best_allow = True
    for allow, pattern, plen in rules:
        if _pattern_regex(pattern).match(path):
            if plen > best_len or (plen == best_len and allow and not best_allow):
                best_len = plen
                best_allow = allow
    return best_allow


def make_robots_txt(host: str) -> str:
    """Deterministic synthetic robots.txt for a host (no network in the
    sandbox). The governing ``*`` group's rules are a pure function of
    ``k = (len(host) + ord(host[0])) % 5`` so the SQL oracle can replay the
    allow verdicts; a decoy ``evilbot`` deny-all group exercises group
    selection on every host."""
    k = (len(host) + ord(host[0])) % 5
    star_rules = {
        0: [],
        1: ["Disallow: /x/"],
        2: ["Disallow: /local/", "Allow: /local/2"],
        3: ["Disallow: /", "Allow: /d/"],
        4: ["Disallow: /*/up/"],
    }[k]
    delay = 1 + (len(host) + ord(host[0])) % 4
    lines = [
        "# synthetic robots for " + host,
        "User-agent: evilbot",
        "Disallow: /",
        "Crawl-delay: 99",  # decoy: group selection must skip it
        "",
        "User-agent: *",
        *star_rules,
        f"Crawl-delay: {delay}",
        "",
        "Sitemap: https://" + host + "/sitemap.xml",
    ]
    return "\n".join(lines) + "\n"


def parse_crawl_delay(text: str, agent: str = AGENT) -> int:
    """Per-agent Crawl-delay in whole seconds (the de-facto extension Bing/
    Yandex honor; RFC 9309 leaves it undefined). Same group-selection
    semantics as ``parse_robots`` — the agent's own group wins over the
    ``*`` fallback — with Crawl-delay itself counting as a rule line for
    group termination. Missing/unparsable -> 0 (no pacing constraint)."""
    groups: List[Tuple[List[str], int]] = []
    cur_agents: List[str] = []
    cur_delay = 0
    in_rules = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            if in_rules:
                groups.append((cur_agents, cur_delay))
                cur_agents, cur_delay, in_rules = [], 0, False
            cur_agents.append(value.lower())
        elif field in ("allow", "disallow"):
            in_rules = True
        elif field == "crawl-delay":
            in_rules = True
            try:
                cur_delay = max(0, int(float(value)))
            except ValueError:
                pass
    if cur_agents:
        groups.append((cur_agents, cur_delay))

    agent = agent.lower()
    fallback = 0
    for agents, delay in groups:
        if agent in agents:
            return delay
        if "*" in agents:
            fallback = delay
    return fallback
