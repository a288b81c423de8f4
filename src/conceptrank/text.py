"""Text cleanup: tokenization, stopword removal, Porter stemming.

Both the stopword list and the stemmer are fixed in-repo so that cleaned
text is bit-reproducible across environments.  The stemmer follows the
classic Porter algorithm (single pass, longest-suffix-wins within each
step).
"""

from __future__ import annotations

import functools
import re

__all__ = ["tokenize", "clean_text", "porter_stem", "STOPWORDS"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(raw: str) -> list[str]:
    """Lowercase and split on any run of non-alphanumeric characters."""
    return _TOKEN_RE.findall(raw.lower())


def clean_text(raw: str) -> list[str]:
    """Tokenize, drop stopwords, and stem the remaining tokens."""
    return [porter_stem(t) for t in tokenize(raw) if t not in STOPWORDS]


# ---------------------------------------------------------------------------
# Porter stemmer
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions ([C](VC)^m[V])."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _rule_table(word: str, rules, min_measure: int) -> str:
    """Apply the longest-matching suffix rule whose measure condition holds.

    Within a step the longest matching suffix is selected first; if its
    condition fails no other rule of the step fires.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


# Each table lists a suffix before every shorter suffix that it ends with,
# so the first match is the longest one.
_STEP2_RULES = [
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("biliti", "ble"),
    ("tional", "tion"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("ation", "ate"),
    ("alism", "al"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
]

_STEP3_RULES = [
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
]

_STEP4_SUFFIXES = [
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "ion",
    "al",
    "er",
    "ic",
    "ou",
]


# descriptions repeat a few distinct tokens many times: of the 2,400 that
# one `solve` bench instance's query layer stems, 72 are distinct, and the
# memo cut that layer's build from about 31 to 9 ms.  Bounded, so a stream
# of distinct tokens does not grow it without end
@functools.lru_cache(maxsize=1 << 16)
def porter_stem(word: str) -> str:
    """Classic Porter stemming of a single lowercase token."""
    if len(word) <= 2:
        return word

    # step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stripped = None
        if word.endswith("ed") and _has_vowel(word[:-2]):
            stripped = word[:-2]
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            stripped = word[:-3]
        if stripped is not None:
            word = stripped
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # steps 2 and 3
    word = _rule_table(word, _STEP2_RULES, 0)
    word = _rule_table(word, _STEP3_RULES, 0)

    # step 4
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                break
            if _measure(stem) > 1:
                word = stem
            break

    # step 5a
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # step 5b
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word


# Fixed English stopword list (170 entries), including the apostrophe-free
# fragments the tokenizer produces from contractions ("don't" -> don, t).
STOPWORDS = frozenset(
    """
    i me my myself we our ours ourselves you your yours yourself yourselves
    he him his himself she her hers herself it its itself they them their
    theirs themselves what which who whom this that these those am is are
    was were be been being have has had having do does did doing a an the
    and but if or because as until while of at by for with about against
    between into through during before after above below to from up down in
    out on off over under again further then once here there when where why
    how all any both each few more most other some such no nor not only own
    same so than too very s t can will just don should now d ll m o re ve y
    ain aren couldn didn doesn hadn hasn haven isn ma mightn mustn needn
    shan shouldn wasn weren won wouldn would could shall may might must
    ought also cannot onto upon via within without whether either neither
    """.split()
)
