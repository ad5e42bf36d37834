"""Query/document analysis: lowercasing, tokenization, stopwords, Porter stemming."""

from __future__ import annotations

import functools

# Lucene's default English stopword set.
STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)

_VOWELS = "aeiou"


class PorterStemmer:
    """Classic Porter stemming algorithm (the original 1980 variant)."""

    def stem(self, word: str) -> str:
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._apply_rules(word, self._STEP2_RULES)
        word = self._apply_rules(word, self._STEP3_RULES)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- character classes ------------------------------------------------

    def _is_consonant(self, word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return i == 0 or not self._is_consonant(word, i - 1)
        return True

    def _measure(self, stem: str) -> int:
        """Number of VC sequences in the stem."""
        m = 0
        prev_vowel = False
        for i in range(len(stem)):
            cons = self._is_consonant(stem, i)
            if cons and prev_vowel:
                m += 1
            prev_vowel = not cons
        return m

    def _has_vowel(self, stem: str) -> bool:
        return any(not self._is_consonant(stem, i) for i in range(len(stem)))

    def _ends_double_consonant(self, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and self._is_consonant(word, len(word) - 1)
        )

    def _ends_cvc(self, word: str) -> bool:
        return (
            len(word) >= 3
            and self._is_consonant(word, len(word) - 3)
            and not self._is_consonant(word, len(word) - 2)
            and self._is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy"
        )

    # -- steps ------------------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            return stem + "ee" if self._measure(stem) > 0 else word
        cleanup = False
        if word.endswith("ed") and self._has_vowel(word[:-2]):
            word = word[:-2]
            cleanup = True
        elif word.endswith("ing") and self._has_vowel(word[:-3]):
            word = word[:-3]
            cleanup = True
        if cleanup:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._has_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ]

    _STEP3_RULES = [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ]

    _STEP4_SUFFIXES = [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]

    def _apply_rules(self, word: str, rules) -> str:
        """Steps 2 and 3: the first rule whose suffix ends the word decides;
        it replaces the suffix when the remaining stem has measure > 0."""
        for suffix, repl in rules:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                return stem + repl if self._measure(stem) > 0 else word
        return word

    def _step4(self, word: str) -> str:
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if self._measure(stem) > 1:
                    # "ion" only strips after s or t
                    if suffix == "ion" and (not stem or stem[-1] not in "st"):
                        return word
                    return stem
                return word
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1 or (m == 1 and not self._ends_cvc(stem)):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if (
            self._measure(word) > 1
            and self._ends_double_consonant(word)
            and word.endswith("l")
        ):
            return word[:-1]
        return word


# Maps every byte other than a-z and 0-9 to a space. Every non-ASCII
# character encodes to bytes >= 0x80, so it becomes a separator too.
_TOKEN_TABLE = bytes(
    c if (0x61 <= c <= 0x7A or 0x30 <= c <= 0x39) else 0x20 for c in range(256)
)


def tokenize(text: str) -> list[str]:
    """The runs of ``[a-z0-9]`` in the lowercased text, in one C pass.

    Equals ``re.findall(r"[a-z0-9]+", text.lower())`` on every string: the
    text is lowercased first (so the Kelvin sign gives ``k``), and a lone
    surrogate encodes under ``surrogatepass`` to bytes >= 0x80, which
    separate tokens like any other non-ASCII character.
    """
    return (text.lower().encode("utf-8", "surrogatepass")
            .translate(_TOKEN_TABLE).decode("ascii").split())


# Distinct tokens whose terms ``analyze`` keeps; beyond it the least recently
# used are evicted, so memory stays flat however large the vocabulary.
STEM_MEMO_SIZE = 1 << 16

_STEMMER = PorterStemmer()


def _term(token: str) -> str:
    # "" for a stopword: Porter never stems a non-empty token to "", so
    # filtering out falsy terms drops exactly the stopwords
    return "" if token in STOPWORDS else _STEMMER.stem(token)


# Thread-safe; a term is pure in its token, so a memoised one is exact.
_stem = functools.lru_cache(maxsize=STEM_MEMO_SIZE)(_term)


def analyze(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop stopwords, Porter-stem.

    Deterministic; the output feeds both indexing and query scoring so the
    two sides always agree on vocabulary. Terms come from a bounded memo of
    ``STEM_MEMO_SIZE`` distinct tokens, in which a stopword maps to ``""``;
    on a memo hit no Python code runs for the token.
    """
    return list(filter(None, map(_stem, tokenize(text))))
