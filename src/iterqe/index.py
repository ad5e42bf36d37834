"""Inverted index with Okapi BM25 scoring (Lucene-style idf, k1=0.9, b=0.4).

Postings are held in CSR arrays: the postings of the term in row ``r`` are
the slice ``offsets[r]:offsets[r + 1]`` of ``doc_ordinals``, ``tfs`` (built
index) and ``impacts`` (loaded or searched index). A posting's impact is its
whole BM25 contribution, ``idf * tf(k1 + 1) / (tf + norm)``, computed once
when the index is loaded or first searched, so a search is a scatter-add of
query multiplicity x impact over all documents (the eager sparse scoring of
BM25S, Lù 2024, arXiv:2407.03618).

The scatter-add is one ``np.add.at`` per query term, in order of first
occurrence in the query. Since numpy 1.25 ``ufunc.at`` makes one unbuffered
pass, with no gathered copy of the scores as ``scores[ordinals] += ...``
makes, and so takes about half its time. Each document's score is the IEEE
sum, from 0.0 and term by term in that order, of multiplicity x impact,
bit for bit (``tests/oracles.reference_scores``), since a posting list
names a document at most once. ``np.add.at`` holds the GIL for its whole
pass, so searches on two threads overlap little.

``PostingIndex.save`` writes an ``np.savez_compressed`` archive (index
format version 5) at exactly the path given. It stores only what the index
cannot derive, in these arrays:

- ``format`` (the bytes ``iterqe-index``), ``version`` (``[5]``) and
  ``params`` (float64 ``[k1, b]``);
- ``terms`` and ``doc_ids``: the terms, in row order, and the doc ids, in
  ordinal order, each as one UTF-8 text joined by ``"\\n"``. Neither a term
  nor a doc id may be empty or hold whitespace, so ``str.split`` reads them
  back. An ordinal is the rank of its doc id: the ids ascend strictly, and
  ``PostingIndex`` refuses any other order, so that a tie broken by ordinal
  is broken by doc id;
- ``posting_counts``: the number of postings of each term, in row order;
- ``doc_gap_planes``: the doc ordinals of all posting lists, in row order,
  as d-gaps (Witten, Moffat and Bell, *Managing Gigabytes*, 1999): each
  ordinal minus the one before it in its list, the first one minus 0.
  The gaps are narrowed to 1, 2 or 4 bytes and split into byte planes, the
  "shuffle" of HDF5 and Blosc: a ``(width, postings)`` uint8 array whose
  row ``k`` holds byte ``k`` of every gap, low byte first. Deflate packs
  the mostly zero high planes apart from the low one, smaller and faster
  than whole ordinals;
- ``tfs``: the term frequency of each posting.

``posting_counts`` and ``tfs`` are stored in the narrowest unsigned dtype
that holds their largest value. Document lengths, the sums of the tfs, are
not stored. ``PostingIndex.load`` checks the stored arrays, decodes them
into the int64 offsets and int32 ordinals and tfs that ``build_index``
makes, and keeps no tfs once the impacts are computed. It refuses a file of
any other version with one message, so a change to the stored layout or to
the analysis bumps ``INDEX_VERSION`` and adds no other code.
"""

from __future__ import annotations

import functools
import math
import os
import zipfile
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .analysis import analyze
from .corpus import Corpus

INDEX_FORMAT = "iterqe-index"
INDEX_VERSION = 5
# the arrays of an index file besides its format and version: the dtype kinds
# and the number of dimensions that each is stored in
_ARRAYS = {"params": ("f", 1), "terms": ("u", 1), "doc_ids": ("u", 1),
           "posting_counts": ("iu", 1), "doc_gap_planes": ("u", 2), "tfs": ("iu", 1)}
# the largest term frequency an index file may store: the index holds tfs as int32
_TF_MAX = np.iinfo(np.int32).max
# documents that build_index analyses and counts in one vectorised step
BUILD_CHUNK_DOCS = 1024


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if not 0 <= self.k1 < math.inf:  # NaN fails every comparison
            raise ValueError("k1 must be finite and non-negative")
        if not 0 <= self.b <= 1:
            raise ValueError("b must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class ScoredHit:
    doc_id: str
    score: float
    rank: int


class Ranking:
    """A top-k ranking as arrays: document ordinals and float64 scores, best first.

    It names its documents through the index's ``doc_ids`` list, which it
    shares, not copies. Iterating it builds ``ScoredHit``s on demand;
    callers that only need the ordinals, the ids or the scores read
    ``ordinals``, ``doc_ids()`` and ``scores``.
    """

    __slots__ = ("ordinals", "scores", "_names", "_ids")

    def __init__(self, ordinals: np.ndarray, scores: np.ndarray, names: list[str]):
        self.ordinals = ordinals
        self.scores = scores
        self._names = names
        self._ids: list[str] | None = None

    def doc_ids(self) -> list[str]:
        """The ranked doc ids.

        The list is built on the first call and returned by later ones (the
        final ranking is read for the run lines and again for the trace),
        so callers must not change it.
        """
        if self._ids is None:
            names = self._names
            self._ids = [names[o] for o in self.ordinals.tolist()]
        return self._ids

    def __len__(self) -> int:
        return len(self.ordinals)

    def __iter__(self):
        for rank, (doc_id, score) in enumerate(zip(self.doc_ids(), self.scores.tolist()), 1):
            yield ScoredHit(doc_id, score, rank)


class PostingIndex:
    """Postings in CSR layout plus the per-posting BM25 impacts derived from them.

    Built, it holds ``term_rows``, offsets, ordinals, tfs and ids, and computes
    its impacts when first searched (never in ``iterqe index``). Loaded, it is
    only searched, never saved: it holds the same minus the tfs, plus impacts.
    """

    def __init__(self, terms: list[str], offsets: np.ndarray, doc_ordinals: np.ndarray,
                 tfs: np.ndarray, doc_ids: list[str], params: Bm25Params | None = None):
        if not all(map(str.__lt__, doc_ids, islice(doc_ids, 1, None))):
            raise ValueError("the doc ids are not strictly ascending")
        self.term_rows = dict(zip(terms, range(len(terms))))
        # a repeated term would keep only its last row
        if len(self.term_rows) != len(terms):
            raise ValueError("a term is stored twice")
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.doc_ordinals = np.asarray(doc_ordinals, dtype=np.int32)
        self.tfs = np.asarray(tfs, dtype=np.int32)
        self.doc_ids = doc_ids
        self.params = params or Bm25Params()
        self.avg_doc_length = int(self.tfs.sum(dtype=np.int64)) / self.doc_count

    @functools.cached_property
    def impacts(self) -> np.ndarray:
        # idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl)), evaluated
        # in place to hold two float arrays at a time, with the grouping of the
        # scalar formula (IEEE + and * commute), so that every impact equals it
        # bit for bit; math.log too, because np.log may round differently.
        k1, b = self.params.k1, self.params.b
        avgdl = self.avg_doc_length or 1.0
        n = self.doc_count
        dfs = np.diff(self.offsets)
        # one log per distinct document frequency: a corpus has few of them
        distinct, row_df = np.unique(dfs, return_inverse=True)
        idf = np.array([math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in distinct.tolist()],
                       dtype=np.float64)[row_df]
        # a document's length is the sum of its term frequencies. add.at, not
        # bincount: bincount's weights would be a float64 copy of the tfs
        doc_lengths = np.zeros(n, dtype=np.int32)
        np.add.at(doc_lengths, self.doc_ordinals, self.tfs)
        denominator = doc_lengths[self.doc_ordinals].astype(np.float64)
        denominator *= b
        denominator /= avgdl
        denominator += 1.0 - b
        denominator *= k1
        impacts = self.tfs.astype(np.float64)
        denominator += impacts
        impacts *= k1 + 1.0
        impacts *= np.repeat(idf, dfs)
        impacts /= denominator
        return impacts

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def save(self, path: str) -> None:
        """Write the index file (the layout is in the module docstring).

        The archive is written to a temporary file beside ``path``, which
        then replaces ``path``: a save that fails or is interrupted leaves
        an earlier file at ``path`` as it was.
        """
        arrays = {
            "format": np.frombuffer(INDEX_FORMAT.encode(), dtype=np.uint8),
            "version": np.array([INDEX_VERSION], dtype=np.int64),
            "params": np.array([self.params.k1, self.params.b], dtype=np.float64),
            "terms": _joined([*self.term_rows], "term"), "doc_ids": _joined(self.doc_ids, "doc id"),
            "posting_counts": _narrow(np.diff(self.offsets)),
            "doc_gap_planes": _gap_planes(self.doc_ordinals, self.offsets),
            "tfs": _narrow(self.tfs),
        }
        temporary = f"{path}.{os.getpid()}.tmp"
        try:
            # An open handle keeps the path as given; np.savez would append ".npz".
            with open(temporary, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(temporary, path)
        finally:
            if os.path.lexists(temporary):
                os.remove(temporary)

    @classmethod
    def load(cls, path: str) -> "PostingIndex":
        # NpzFile reads only the zip archive that np.savez writes: any other file is a BadZipFile
        with open(path, "rb") as fh:
            try:
                with np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
                raise ValueError(f"{path}: not an index file ({exc})") from None
        # NpzFile gives a member that is not an .npy array as its raw bytes
        if (not all(isinstance(a, np.ndarray) for a in arrays.values())
                or "format" not in arrays or arrays["format"].tobytes() != INDEX_FORMAT.encode()):
            raise ValueError(f"{path}: not an index file")
        version = arrays["version"].tolist() if "version" in arrays else None
        if version != [INDEX_VERSION]:
            raise ValueError(f"{path}: index file of version {version}, but this code reads "
                             f"version [{INDEX_VERSION}]: rebuild the index with `iterqe index`")
        for name, (kinds, ndim) in _ARRAYS.items():
            a = arrays.get(name)
            if a is None or a.dtype.kind not in kinds or a.ndim != ndim:
                raise ValueError(f"{path}: index file lacks {name} as a {ndim}-D array of "
                                 f"dtype kind {' or '.join(kinds)}")
        try:
            # a UnicodeDecodeError is a ValueError
            terms = arrays["terms"].tobytes().decode("utf-8", "surrogatepass").split()
            doc_ids = arrays["doc_ids"].tobytes().decode("utf-8", "surrogatepass").split()
            offsets, doc_ordinals = _decode_postings(arrays, len(terms), len(doc_ids))
            k1, b = arrays["params"].tolist()
            index = cls(terms, offsets, doc_ordinals, arrays["tfs"], doc_ids,
                        Bm25Params(k1=k1, b=b))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        # the stored arrays, the gap planes among them, are not needed to
        # search: free them before the impacts take the load's peak
        del arrays
        # a loaded index is there to be searched: pay for this while loading,
        # not in the first query; a search reads no tfs
        index.impacts  # noqa: B018
        del index.tfs
        return index


def _decode_postings(arrays: dict[str, np.ndarray], term_count: int,
                     doc_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 posting offsets and int32 doc ordinals of an index file's arrays.

    Raises ValueError unless the stored arrays fit together. Loading and
    searching index with them unchecked, so a file whose arrays disagree
    would otherwise end in a bare IndexError or broadcast error, or rank
    silently wrong.
    """
    # as int64, a uint64 count past 2**63 is negative, as the check below needs
    counts = arrays["posting_counts"].astype(np.int64)
    planes = arrays["doc_gap_planes"]
    if doc_count < 1:
        raise ValueError("the index holds no document")
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if len(offsets) != term_count + 1:
        raise ValueError(f"{len(offsets)} posting offsets for {term_count} terms")
    # a gap has the width of an unsigned dtype no wider than int32
    if planes.dtype != np.uint8 or len(planes) not in (1, 2, 4):
        raise ValueError(f"the doc gaps are not stored as 1, 2 or 4 byte planes "
                         f"(a {planes.dtype} array of shape {planes.shape})")
    postings = planes.shape[1]
    if offsets[-1] != postings or counts.min(initial=0) < 0:
        raise ValueError(f"the posting offsets do not rise from 0 to {postings} postings")
    tfs = arrays["tfs"]
    if len(tfs) != postings:
        raise ValueError(f"{len(tfs)} term frequencies for {postings} postings")
    # a tf counts a term's occurrences in a document, so it is at least 1, and
    # the index holds it as int32: a wider one would wrap
    if tfs.min(initial=1) < 1 or tfs.max(initial=1) > _TF_MAX:
        raise ValueError(f"the term frequencies are not integers in 1..{_TF_MAX} "
                         f"(a {tfs.dtype} array)")
    # the planes go straight into the bytes of the ordinals, which then hold the gaps
    ordinals = np.zeros(postings, dtype="<i4")
    gap_bytes = ordinals.view(np.uint8).reshape(postings, 4)
    for k, plane in enumerate(planes):
        gap_bytes[:, k] = plane
    starts = offsets[:-1][counts > 0]
    # a list's gaps sum to its last ordinal. Summed in 32 bits, since a wider
    # reduceat would first copy every gap, a sum past 2**32 wraps; then the
    # sums fall short of the gaps' total, summed in 64 bits.
    gaps = ordinals.view("<u4")
    last = np.add.reduceat(gaps, starts, dtype=np.uint32)
    if (last.max(initial=0) >= doc_count
            or last.sum(dtype=np.int64) != gaps.sum(dtype=np.int64)):
        raise ValueError(f"a posting names a document outside 0..{doc_count - 1}")
    # a search adds a term's impact to a document as often as its list names
    # it, so a list names each document once; only a list's first gap,
    # counted from 0, may be 0
    if postings - np.count_nonzero(ordinals) != len(starts) - np.count_nonzero(ordinals[starts]):
        raise ValueError("a posting list names a document twice or out of order")
    # each list's first gap minus the last ordinal of the list before it,
    # so that one running sum over all gaps restarts at every list
    ordinals[starts[1:]] -= last[:-1]
    np.cumsum(ordinals, out=ordinals)
    return offsets, ordinals


def _joined(strings: list[str], what: str) -> np.ndarray:
    """The UTF-8 bytes of the strings joined by "\\n", which ``str.split`` reads back."""
    text = "\n".join(strings)
    if text.split() != strings:
        raise ValueError(f"a {what} is empty or holds whitespace, which an index file "
                         "cannot store")
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def _narrow(a: np.ndarray) -> np.ndarray:
    """A non-negative integer array in the narrowest unsigned dtype holding its maximum.

    An array that would not shrink keeps its own dtype, so that loading it
    needs no copy: uint32 term frequencies would be widened back to int32.
    """
    narrow = np.min_scalar_type(int(a.max(initial=0)))
    return a.astype(narrow) if narrow.itemsize < a.itemsize else a


def _gap_planes(ordinals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The d-gaps of the posting lists as byte planes, ``(width, postings)`` uint8."""
    gaps = ordinals.copy()
    gaps[1:] -= ordinals[:-1]
    starts = offsets[:-1][offsets[1:] > offsets[:-1]]
    gaps[starts] = ordinals[starts]
    gaps = _narrow(gaps)
    gaps = gaps.astype(gaps.dtype.newbyteorder("<"), copy=False)
    return np.ascontiguousarray(gaps.view(np.uint8).reshape(len(gaps), gaps.itemsize).T)


def build_index(corpus: Corpus, params: Bm25Params | None = None) -> PostingIndex:
    """Analyze every document and build postings sorted by term row, then ordinal.

    Documents are counted ``BUILD_CHUNK_DOCS`` at a time: one ``np.unique``
    over ``row * chunk_size + local_ordinal`` keys yields the chunk's
    (row, ordinal, tf) triples in row-major order, so no Python code runs
    per posting. Terms get their rows in order of first occurrence.
    """
    if corpus.doc_count == 0:
        raise ValueError("cannot index an empty corpus")
    term_rows: dict[str, int] = {}
    # One entry per (document, distinct term), by row then ordinal within
    # each chunk. Growing arrays rather than one numpy array per chunk: the
    # freed chunk arrays stayed in the heap, 100 MB more RSS after a build
    # of 200,000 passages.
    rows, ordinals, tfs = array("i"), array("i"), array("i")
    for start in range(0, corpus.doc_count, BUILD_CHUNK_DOCS):
        chunk = corpus.texts[start:start + BUILD_CHUNK_DOCS]
        analyzed = [analyze(text) for text in chunk]
        flat = list(chain.from_iterable(analyzed))
        for t in dict.fromkeys(flat):
            term_rows.setdefault(t, len(term_rows))
        lengths = np.fromiter(map(len, analyzed), dtype=np.int64, count=len(chunk))
        keys = np.fromiter(map(term_rows.__getitem__, flat), dtype=np.int64, count=len(flat))
        keys *= len(chunk)
        keys += np.repeat(np.arange(len(chunk), dtype=np.int64), lengths)
        keys, counts = np.unique(keys, return_counts=True)
        chunk_rows, chunk_ordinals = np.divmod(keys, len(chunk))
        chunk_ordinals += start
        rows.frombytes(chunk_rows.astype(np.int32).tobytes())
        ordinals.frombytes(chunk_ordinals.astype(np.int32).tobytes())
        tfs.frombytes(counts.astype(np.int32).tobytes())
        del chunk, analyzed, flat, lengths, keys, counts, chunk_rows, chunk_ordinals
    row_of = np.frombuffer(rows, dtype=np.int32)
    # a stable sort by row keeps each term's postings in ascending ordinal order
    order = np.argsort(row_of, kind="stable")
    offsets = np.zeros(len(term_rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=len(term_rows)), out=offsets[1:])
    sorted_ordinals = np.frombuffer(ordinals, dtype=np.int32)[order]
    sorted_tfs = np.frombuffer(tfs, dtype=np.int32)[order]
    # 20 bytes a posting, freed before the impacts are computed
    del rows, ordinals, tfs, row_of, order
    return PostingIndex(
        terms=list(term_rows),
        offsets=offsets,
        doc_ordinals=sorted_ordinals,
        tfs=sorted_tfs,
        # shared, not copied: index and corpus hold one id list
        doc_ids=corpus.doc_ids,
        params=params,
    )


def search_topk(index: PostingIndex, query_text: str, k: int) -> Ranking:
    """Top-k BM25 ranking, score descending, ties by doc_id ascending; zero scores dropped."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # counted in C, in first-occurrence order
    term_counts = Counter(analyze(query_text))
    scores = np.zeros(index.doc_count, dtype=np.float64)
    # term by term in first-occurrence order, so that each document's sum is
    # accumulated in the order of the BM25 definition
    for term, mult in term_counts.items():
        row = index.term_rows.get(term)
        if row is not None:
            lo, hi = index.offsets[row], index.offsets[row + 1]
            np.add.at(scores, index.doc_ordinals[lo:hi], mult * index.impacts[lo:hi])
    candidates = np.flatnonzero(scores > 0.0)
    if candidates.size > k:
        # keep every candidate tied with the k-th score; doc_id decides among them
        kth = np.partition(scores[candidates], candidates.size - k)[candidates.size - k]
        candidates = candidates[scores[candidates] >= kth]
    # candidates ascend by ordinal, which is doc-id order: a stable sort keeps it among ties
    top = candidates[np.argsort(-scores[candidates], kind="stable")][:k]
    return Ranking(top, scores[top], index.doc_ids)
