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
"""

__version__ = "0.1.0"
