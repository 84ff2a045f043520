"""Query-focused extractive summarisation for biomedical question answering.

Subpackages and modules:

* :mod:`qfs.corpus` -- question sets, document collections, feedback
* :mod:`qfs.textproc` -- tokenization, sentence splitting, stopwords
* :mod:`qfs.sentences` -- the sentence store: documents split and tokenized once
* :mod:`qfs.metrics` -- ROUGE-SU4 and retrieval evaluation
* :mod:`qfs.retrieval` -- BM25, dense cosine, hybrid interpolation
* :mod:`qfs.embeddings` -- word vectors and the CEMB interchange format
* :mod:`qfs.neural` -- from-scratch classifiers, training, the QFSM model format
* :mod:`qfs.pipeline` -- tf-idf cosine, snippets, labels, answers, cross-validation
* :mod:`qfs.config` / :mod:`qfs.cli` -- configuration and commands

The per-call rule: code run per question or per call -- answering in
:mod:`qfs.pipeline`, and labelling's SU4 kernel in :mod:`qfs.metrics` with
:func:`qfs.textproc.split_words` -- calls ndarray methods and ufuncs, not
numpy's Python-level module functions: ``np.flatnonzero(x)`` is
``x.nonzero()[0]`` behind about nine interpreter calls, and on arrays of a
few hundred elements such calls cost more than the work. Code run once per
index, on large arrays, may use them.
"""

__version__ = "0.1.0"
