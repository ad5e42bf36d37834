import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, strategies as st

from iterqe import analysis
from iterqe.analysis import STEM_MEMO_SIZE, STOPWORDS, PorterStemmer, analyze, tokenize

# Input/output pairs from the published reference vocabulary of the
# original Porter algorithm.
REFERENCE_STEMS = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file", "happy": "happi", "sky": "sky", "relational": "relat",
    "conditional": "condit", "rational": "ration", "valenci": "valenc",
    "hesitanci": "hesit", "digitizer": "digit", "radicalli": "radic",
    "differentli": "differ", "vileli": "vile", "analogousli": "analog",
    "vietnamization": "vietnam", "predication": "predic", "operator": "oper",
    "feudalism": "feudal", "decisiveness": "decis", "hopefulness": "hope",
    "callousness": "callous", "formaliti": "formal", "sensitiviti": "sensit",
    "sensibiliti": "sensibl", "triplicate": "triplic", "formative": "form",
    "formalize": "formal", "electriciti": "electr", "electrical": "electr",
    "hopeful": "hope", "goodness": "good", "revival": "reviv",
    "allowance": "allow", "inference": "infer", "airliner": "airlin",
    "gyroscopic": "gyroscop", "adjustable": "adjust", "defensible": "defens",
    "irritant": "irrit", "replacement": "replac", "adjustment": "adjust",
    "dependent": "depend", "adoption": "adopt", "communism": "commun",
    "activate": "activ", "angulariti": "angular", "homologous": "homolog",
    "effective": "effect", "bowdlerize": "bowdler", "probate": "probat",
    "rate": "rate", "cease": "ceas", "controll": "control", "roll": "roll",
    "generalization": "gener", "oscillators": "oscil",
}


@pytest.mark.parametrize("word,expected", sorted(REFERENCE_STEMS.items()))
def test_porter_reference_vocabulary(word, expected):
    assert PorterStemmer().stem(word) == expected


def test_porter_running_runs():
    stemmer = PorterStemmer()
    assert stemmer.stem("running") == "run"
    assert stemmer.stem("runs") == "run"


def test_analyze_stopwords_and_case():
    assert analyze("The Columbia River") == ["columbia", "river"]


def test_analyze_empty():
    assert analyze("") == []


def test_analyze_stemming():
    assert analyze("running runs") == ["run", "run"]


def test_analyze_splits_on_punctuation():
    assert analyze("hello,world-foo") == ["hello", "world", "foo"]


def test_analyze_drops_all_stopwords():
    assert analyze(" ".join(STOPWORDS)) == []


def test_stem_may_equal_a_stopword():
    # stopwords are dropped before stemming, as Lucene's StopFilter comes
    # before PorterStemFilter, so a stem can be a stopword
    assert analyze("one") == ["on"]
    assert analyze("ASE") == ["as"]


@given(st.text())
@example("ASE")
def test_analyze_deterministic_and_lowercase(text):
    out = analyze(text)
    assert out == analyze(text)
    for term in out:
        assert term == term.lower()
    # no stopword token survives; each other token leaves its stem
    kept = [t for t in re.findall(r"[a-z0-9]+", text.lower()) if t not in STOPWORDS]
    assert out == [PorterStemmer().stem(t) for t in kept]


# every code point, surrogates and unassigned ones included
@given(st.text(st.characters(blacklist_categories=())))
@example("\u212a")  # the Kelvin sign lowercases to k
@example("\u0130stanbul")  # lowercases to i, a combining dot, then stanbul
@example("\uff11\uff12")  # full-width digits are not [0-9]
@example("a b\x85c")  # NEL, a non-ASCII separator
@example("x\ud800y")  # a lone surrogate
@example("\u01c5")  # a title-case digraph
def test_tokenize_equals_regex_findall(text):
    assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower())


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=20))
@example("a")
@example("s")
@example("ss")
@example("ies")
@example("sses")
def test_stemmer_never_returns_empty(token):
    # analyze marks a stopword with "" in its memo and filters it out, which
    # is exact only because no token stems to ""
    assert PorterStemmer().stem(token) != ""


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_stemmer_never_grows_words(word):
    assert len(PorterStemmer().stem(word)) <= len(word)


def unmemoised(words):
    """What ``analyze`` must return for these words, stemmed afresh."""
    stemmer = PorterStemmer()
    return [stemmer.stem(w.lower()) for w in words if w.lower() not in STOPWORDS]


words_st = st.lists(
    st.one_of(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCXYZ0123456789", min_size=1, max_size=15),
        st.sampled_from(sorted(STOPWORDS)),
    ),
    max_size=30,
)


@given(words_st, st.sampled_from([" ", ", ", "-", ".\n", "\t"]))
def test_analyze_memo_matches_stemmer_cold_and_warm(words, sep):
    text = sep.join(words)
    expected = unmemoised(words)
    analysis._stem.cache_clear()
    assert analyze(text) == expected  # every stem computed and stored
    assert analyze(text) == expected  # every stem read from the memo


def test_stem_memo_is_bounded():
    analysis._stem.cache_clear()
    words = [str(i) for i in range(STEM_MEMO_SIZE + 100)]
    try:
        analyze(" ".join(words))
        info = analysis._stem.cache_info()
        assert info.maxsize == STEM_MEMO_SIZE
        assert info.currsize == STEM_MEMO_SIZE
        assert analyze(words[0]) == unmemoised(words[:1])  # evicted, stemmed again
    finally:
        analysis._stem.cache_clear()


def test_analyze_memo_thread_safe():
    texts = [" ".join(f"t{(i * j) % 97}ational relating" for j in range(40)) for i in range(64)]
    expected = [unmemoised(t.split()) for t in texts]
    analysis._stem.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(analyze, texts, timeout=60)) == expected
    finally:
        sys.setswitchinterval(interval)
    distinct = {w for t in texts for w in t.split()}
    assert analysis._stem.cache_info().currsize == len(distinct)
