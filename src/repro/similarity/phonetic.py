"""Phonetic encodings (Soundex, NYSIIS) used as blocking keys.

Historical census names are full of spelling variation; phonetic codes
collapse most of it, which makes them effective multi-pass blocking keys
(``Ashworth``/``Ashwort`` share a Soundex code, so the pair survives
blocking and the string comparator decides).
"""

from __future__ import annotations

import re

_SOUNDEX_CODES = {
    "b": "1", "f": "1", "p": "1", "v": "1",
    "c": "2", "g": "2", "j": "2", "k": "2", "q": "2",
    "s": "2", "x": "2", "z": "2",
    "d": "3", "t": "3",
    "l": "4",
    "m": "5", "n": "5",
    "r": "6",
}

_LETTERS_RE = re.compile(r"[^a-z]")


def _clean(text: str) -> str:
    return _LETTERS_RE.sub("", text.lower())


#: Memoised Soundex codes: census names repeat heavily (a few hundred
#: distinct names per thousand records), and every blocking pass, the
#: shard planner and the series fingerprints code the same names again.
_SOUNDEX_CACHE: dict = {}
_SOUNDEX_CACHE_LIMIT = 200_000


def soundex(text: str, length: int = 4) -> str:
    """American Soundex code of ``text`` (empty string for empty input)."""
    key = (text, length)
    code = _SOUNDEX_CACHE.get(key)
    if code is None:
        code = _soundex(text, length)
        if len(_SOUNDEX_CACHE) < _SOUNDEX_CACHE_LIMIT:
            _SOUNDEX_CACHE[key] = code
    return code


def _soundex(text: str, length: int) -> str:
    cleaned = _clean(text)
    if not cleaned:
        return ""
    first = cleaned[0]
    encoded = [first.upper()]
    previous = _SOUNDEX_CODES.get(first, "")
    for char in cleaned[1:]:
        code = _SOUNDEX_CODES.get(char, "")
        if code and code != previous:
            encoded.append(code)
            if len(encoded) == length:
                break
        if char not in ("h", "w"):  # h/w do not reset the previous code
            previous = code
    return "".join(encoded).ljust(length, "0")


def nysiis(text: str, max_length: int = 8) -> str:
    """NYSIIS phonetic code — finer-grained than Soundex for surnames."""
    word = _clean(text)
    if not word:
        return ""

    # Transcode the beginning of the name.
    for prefix, replacement in (
        ("mac", "mcc"),
        ("kn", "nn"),
        ("k", "c"),
        ("ph", "ff"),
        ("pf", "ff"),
        ("sch", "sss"),
    ):
        if word.startswith(prefix):
            word = replacement + word[len(prefix):]
            break

    # Transcode the end of the name.
    for suffix, replacement in (
        ("ee", "y"),
        ("ie", "y"),
        ("dt", "d"),
        ("rt", "d"),
        ("rd", "d"),
        ("nt", "d"),
        ("nd", "d"),
    ):
        if word.endswith(suffix):
            word = word[: -len(suffix)] + replacement
            break

    first = word[0]
    key = [first]
    i = 1
    while i < len(word):
        chunk = word[i:]
        if chunk.startswith("ev"):
            candidate, step = "af", 2
        elif chunk[0] in "aeiou":
            candidate, step = "a", 1
        elif chunk[0] == "q":
            candidate, step = "g", 1
        elif chunk[0] == "z":
            candidate, step = "s", 1
        elif chunk[0] == "m":
            candidate, step = "n", 1
        elif chunk.startswith("kn"):
            candidate, step = "n", 2
        elif chunk[0] == "k":
            candidate, step = "c", 1
        elif chunk.startswith("sch"):
            candidate, step = "sss", 3
        elif chunk.startswith("ph"):
            candidate, step = "ff", 2
        elif chunk[0] == "h" and (
            word[i - 1] not in "aeiou"
            or (i + 1 < len(word) and word[i + 1] not in "aeiou")
        ):
            candidate, step = word[i - 1], 1
        elif chunk[0] == "w" and word[i - 1] in "aeiou":
            candidate, step = word[i - 1], 1
        else:
            candidate, step = chunk[0], 1
        for char in candidate:
            if key[-1] != char:
                key.append(char)
        i += step

    # Trim trailing s / a, and convert trailing ay -> y.
    result = "".join(key)
    if result.endswith("s") and len(result) > 1:
        result = result[:-1]
    if result.endswith("ay"):
        result = result[:-2] + "y"
    if result.endswith("a") and len(result) > 1:
        result = result[:-1]
    return result[:max_length].upper()


def phonetic_name_key(first_name: str, surname: str) -> str:
    """Combined blocking key: surname Soundex + first-name initial."""
    surname_code = soundex(surname)
    initial = _clean(first_name)[:1]
    return f"{surname_code}|{initial}"
