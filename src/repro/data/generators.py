"""Deterministic synthetic corpus generators for the paper's datasets.

The paper evaluates five corpora (Table II):

========  =====================================  ======  =========  ==========  ===========
Dataset   Source                                 Size    Files      Rules       Vocabulary
========  =====================================  ======  =========  ==========  ===========
A         NSF Research Award Abstracts (NSFRAA)  580MB   134,631    2,771,880   1,864,902
B         4 Wikipedia web documents              2.1GB   4          2,095,573   6,370,437
C         Large Wikipedia collection             50GB    109        57,394,616  99,239,057
D         Yelp COVID-19 data                     62MB    1          36,882      240,552
E         DBLP web documents                     2.9GB   1          8,821,630   23,959,913
========  =====================================  ======  =========  ==========  ===========

Those corpora cannot be shipped here, so each dataset is replaced by a
*structural analogue*: a deterministic synthetic corpus that matches the
qualitative grammar shape that drives TADOC/G-TADOC behaviour —

* dataset A: very many tiny files sharing boilerplate phrases,
* dataset B: a handful of large, internally redundant documents,
* dataset C: the largest corpus, ~a hundred large files (cluster-scale),
* dataset D: a single small file with moderate redundancy,
* dataset E: a single very large, highly repetitive file (bibliography
  records share field templates).

Scale is controlled by a single ``scale`` multiplier so tests can use
tiny corpora while benchmarks use larger ones.  The paper-scale
statistics are preserved in :class:`DatasetSpec` metadata so benchmark
reports can print both.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.data.corpus import Corpus, Document

__all__ = [
    "DatasetSpec",
    "DATASET_SPECS",
    "SyntheticCorpusGenerator",
    "generate_dataset",
    "list_datasets",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Structural description of one of the paper's datasets.

    The ``paper_*`` fields record the original Table II statistics; the
    remaining fields parameterize the synthetic analogue at ``scale=1.0``.
    """

    key: str
    description: str
    # Paper-scale metadata (Table II).
    paper_size: str
    paper_files: int
    paper_rules: int
    paper_vocabulary: int
    # Synthetic analogue parameters at scale=1.0.
    num_files: int
    tokens_per_file: int
    vocabulary_size: int
    phrase_pool_size: int
    phrase_length: int
    redundancy: float
    zipf_exponent: float = 1.2
    # Whether the paper evaluates this dataset on the 10-node cluster.
    cluster_baseline: bool = False

    def scaled(self, scale: float) -> "DatasetSpec":
        """Return a copy with token volume scaled by ``scale``.

        File count is scaled for the many-file dataset (A) so that the
        "many tiny files" signature is kept without exploding runtime;
        for the few-file datasets only the per-file length scales.
        """
        if scale == 1.0:
            return self
        num_files = self.num_files
        tokens_per_file = self.tokens_per_file
        if self.num_files >= 64:
            num_files = max(8, int(round(self.num_files * scale)))
        else:
            tokens_per_file = max(64, int(round(self.tokens_per_file * scale)))
        vocabulary = max(32, int(round(self.vocabulary_size * min(1.0, scale * 1.5))))
        phrases = max(8, int(round(self.phrase_pool_size * min(1.0, scale * 1.5))))
        return DatasetSpec(
            key=self.key,
            description=self.description,
            paper_size=self.paper_size,
            paper_files=self.paper_files,
            paper_rules=self.paper_rules,
            paper_vocabulary=self.paper_vocabulary,
            num_files=num_files,
            tokens_per_file=tokens_per_file,
            vocabulary_size=vocabulary,
            phrase_pool_size=phrases,
            phrase_length=self.phrase_length,
            redundancy=self.redundancy,
            zipf_exponent=self.zipf_exponent,
            cluster_baseline=self.cluster_baseline,
        )


DATASET_SPECS: Dict[str, DatasetSpec] = {
    "A": DatasetSpec(
        key="A",
        description="NSFRAA analogue: many small abstract files with shared boilerplate",
        paper_size="580MB",
        paper_files=134_631,
        paper_rules=2_771_880,
        paper_vocabulary=1_864_902,
        num_files=220,
        tokens_per_file=160,
        vocabulary_size=2_400,
        phrase_pool_size=120,
        phrase_length=9,
        redundancy=0.82,
    ),
    "B": DatasetSpec(
        key="B",
        description="Small Wikipedia analogue: 4 large internally-redundant documents",
        paper_size="2.1GB",
        paper_files=4,
        paper_rules=2_095_573,
        paper_vocabulary=6_370_437,
        num_files=4,
        tokens_per_file=14_000,
        vocabulary_size=4_000,
        phrase_pool_size=280,
        phrase_length=11,
        redundancy=0.85,
    ),
    "C": DatasetSpec(
        key="C",
        description="Large Wikipedia analogue: ~100 large documents (cluster-scale)",
        paper_size="50GB",
        paper_files=109,
        paper_rules=57_394_616,
        paper_vocabulary=99_239_057,
        num_files=60,
        tokens_per_file=2_400,
        vocabulary_size=6_000,
        phrase_pool_size=380,
        phrase_length=11,
        redundancy=0.82,
        cluster_baseline=True,
    ),
    "D": DatasetSpec(
        key="D",
        description="Yelp COVID-19 analogue: a single small semi-structured file",
        paper_size="62MB",
        paper_files=1,
        paper_rules=36_882,
        paper_vocabulary=240_552,
        num_files=1,
        tokens_per_file=9_000,
        vocabulary_size=1_400,
        phrase_pool_size=110,
        phrase_length=8,
        redundancy=0.78,
    ),
    "E": DatasetSpec(
        key="E",
        description="DBLP analogue: a single very large highly-templated file",
        paper_size="2.9GB",
        paper_files=1,
        paper_rules=8_821_630,
        paper_vocabulary=23_959_913,
        num_files=1,
        tokens_per_file=40_000,
        vocabulary_size=5_000,
        phrase_pool_size=240,
        phrase_length=10,
        redundancy=0.9,
    ),
}


def list_datasets() -> List[str]:
    """Return the dataset keys in evaluation order (A..E)."""
    return sorted(DATASET_SPECS)


class SyntheticCorpusGenerator:
    """Generate a deterministic synthetic corpus from a :class:`DatasetSpec`.

    Generation model
    ----------------
    A vocabulary of ``vocabulary_size`` words is drawn once; word picks
    follow a Zipf-like distribution (real text is heavy-tailed, and this
    is what makes dictionary encoding and grammar rules profitable).  A
    pool of ``phrase_pool_size`` multi-word phrases is built from the
    vocabulary; documents are then composed of phrases (with probability
    ``redundancy``) interleaved with independently drawn words.  Repeated
    phrases across and within documents are what Sequitur folds into
    shared grammar rules, mirroring the boilerplate/templates present in
    the paper's corpora.
    """

    def __init__(self, spec: DatasetSpec, seed: int = 2021) -> None:
        self.spec = spec
        self.seed = seed
        # crc32, not hash(): str hashes are salted per process.
        self._rng = np.random.RandomState(seed + zlib.crc32(spec.key.encode("utf-8")) % 1000)
        self._vocabulary = self._build_vocabulary()
        self._phrases = self._build_phrase_pool()

    # -- internals -----------------------------------------------------------
    def _build_vocabulary(self) -> List[str]:
        return [f"w{index}" for index in range(self.spec.vocabulary_size)]

    def _zipf_word_indices(self, count: int) -> np.ndarray:
        """Draw ``count`` word indices with a Zipf-like rank distribution."""
        if not hasattr(self, "_zipf_cdf"):
            ranks = np.arange(1, self.spec.vocabulary_size + 1, dtype=np.float64)
            weights = 1.0 / np.power(ranks, self.spec.zipf_exponent)
            self._zipf_cdf = np.cumsum(weights / weights.sum())
        draws = self._rng.random_sample(count)
        return np.searchsorted(self._zipf_cdf, draws, side="left")

    def _build_phrase_pool(self) -> List[List[str]]:
        phrases: List[List[str]] = []
        for _ in range(self.spec.phrase_pool_size):
            length = max(
                2, int(self._rng.poisson(self.spec.phrase_length)) or self.spec.phrase_length
            )
            indices = self._zipf_word_indices(length)
            phrases.append([self._vocabulary[i] for i in indices])
        return phrases

    def _generate_document_tokens(self, target_tokens: int) -> List[str]:
        tokens: List[str] = []
        while len(tokens) < target_tokens:
            if self._rng.random_sample() < self.spec.redundancy:
                phrase = self._phrases[self._rng.randint(len(self._phrases))]
                tokens.extend(phrase)
            else:
                run = 1 + int(self._rng.randint(4))
                indices = self._zipf_word_indices(run)
                tokens.extend(self._vocabulary[i] for i in indices)
        return tokens[:target_tokens]

    # -- public API ------------------------------------------------------------
    def generate(self) -> Corpus:
        """Generate the corpus (deterministic for a given spec and seed)."""
        documents: List[Document] = []
        for file_index in range(self.spec.num_files):
            # Vary file lengths a little so rules are not perfectly uniform.
            jitter = 0.6 + 0.8 * self._rng.random_sample()
            target = max(16, int(self.spec.tokens_per_file * jitter))
            tokens = self._generate_document_tokens(target)
            documents.append(
                Document.from_tokens(f"{self.spec.key.lower()}_file_{file_index:05d}", tokens)
            )
        return Corpus(documents, name=f"dataset_{self.spec.key}")


def generate_dataset(
    key: str,
    scale: float = 1.0,
    seed: int = 2021,
    spec_override: Optional[DatasetSpec] = None,
) -> Corpus:
    """Generate the synthetic analogue of paper dataset ``key`` (A..E).

    Parameters
    ----------
    key:
        Dataset key, one of ``"A"`` .. ``"E"``.
    scale:
        Token-volume multiplier relative to the default analogue size.
        Tests use small scales (e.g. ``0.05``); benchmarks use ``1.0``.
    seed:
        Seed for the deterministic generator.
    spec_override:
        Use a fully custom :class:`DatasetSpec` instead of the registry.
    """
    if spec_override is not None:
        spec = spec_override
    else:
        if key not in DATASET_SPECS:
            raise KeyError(f"unknown dataset {key!r}; expected one of {list_datasets()}")
        spec = DATASET_SPECS[key].scaled(scale)
    return SyntheticCorpusGenerator(spec, seed=seed).generate()
