import string

import numpy as np
import pytest

from conceptrank import text
from conceptrank.text import STOPWORDS, clean_text, porter_stem, tokenize

# the step-4 suffixes of the classic algorithm (Porter 1980)
STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)

# word -> stem pairs from the classic algorithm's worked examples
CANONICAL = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("goodness", "good"),
    ("hopeful", "hope"),
    ("formalize", "formal"),
    ("electrical", "electr"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("denied", "deni"),
    ("died", "di"),
    ("dying", "dy"),
    ("generalization", "gener"),
    ("oscillators", "oscil"),
    ("decision", "decis"),
]


def test_clean_text_example():
    assert clean_text("a man is repairing the bicycles") == ["man", "repair", "bicycl"]


def test_clean_text_all_stopwords():
    assert clean_text("the of and") == []


def test_clean_text_empty():
    assert clean_text("") == []


def test_tokenize_splits_non_alphanumeric_runs():
    assert tokenize("Dog-Show!!2024  (final)") == ["dog", "show", "2024", "final"]
    assert tokenize("don't") == ["don", "t"]


@pytest.mark.parametrize("word,expected", CANONICAL)
def test_porter_canonical(word, expected):
    assert porter_stem(word) == expected


def test_porter_leaves_short_tokens():
    for w in ("a", "is", "ox"):
        assert porter_stem(w) == w


def test_stopword_list_fixed():
    assert len(STOPWORDS) == 170
    assert all(w == w.lower() for w in STOPWORDS)


def test_stem_idempotence_on_random_corpus():
    """Stemming a stemmed token is almost always a fixed point.

    Classic Porter is not exactly idempotent.  A single pass runs steps
    1a to 5b once each, so a late step can expose a suffix that an
    earlier step (or a step that fires only once per pass) strips on a
    second pass:

    - a newly exposed final 'e', 's' or 'y': agreed -> agre -> agr,
      decision -> decis -> deci, kaye -> kay -> kai;
    - step 5a deletes a final 'e' and exposes -ed or -ing for step 1b,
      or a step-4 suffix such as -al or -ou: recede -> reced -> rece,
      ekashale -> ekashal -> ekash;
    - step 5b drops a final 'l' and exposes -al or another -ll:
      seticall -> setical -> setic;
    - step 4 removes a suffix and exposes -ed or another step-4 suffix:
      abeder -> abed -> ab, myvoneral -> myvoner -> myvon.

    A first-pass output escapes only when it ends in 'e', 's', 'y', 'ed'
    or 'ing'; or when step 5a/5b only dropped the word's final 'e' or
    'l'; or when it ends in a step-4 suffix and is a proper prefix of the
    word.  Everything else must be a fixed point.
    """
    rng = np.random.default_rng(20240811)
    letters = np.array(list(string.ascii_lowercase))
    corpus = [
        "".join(rng.choice(letters, size=rng.integers(3, 10)))
        for _ in range(3000)
    ]
    violations = []
    for word in corpus:
        once = porter_stem(word)
        twice = porter_stem(once)
        if once != twice:
            violations.append((word, once, twice))
    assert len(violations) <= 0.02 * len(corpus)
    for word, once, _ in violations:
        assert (
            once.endswith(("e", "s", "y", "ed", "ing"))
            or (word[-1] in "el" and once == word[:-1])
            or (once.endswith(STEP4_SUFFIXES) and once != word and word.startswith(once))
        ), (word, once)


def test_known_non_idempotent_words_documented():
    # the documented exceptions to idempotence, pinned so the behavior of
    # the classic algorithm is not "fixed" by accident
    assert porter_stem("agreed") == "agre"
    assert porter_stem("agre") == "agr"
    assert porter_stem("decision") == "decis"
    assert porter_stem("decis") == "deci"
    # step 5a exposes -ed, which step 1b strips on a second pass
    assert porter_stem("recede") == "reced"
    assert porter_stem("reced") == "rece"


@pytest.mark.parametrize(
    "table",
    [
        [suffix for suffix, _ in text._STEP2_RULES],
        [suffix for suffix, _ in text._STEP3_RULES],
        text._STEP4_SUFFIXES,
    ],
    ids=["step2", "step3", "step4"],
)
def test_rule_tables_list_each_suffix_before_its_own_suffixes(table):
    # a step applies the first rule that matches, which is the longest
    # match only if no rule precedes a longer rule that ends with it
    for i, suffix in enumerate(table):
        assert not [s for s in table[:i] if suffix.endswith(s)], suffix
