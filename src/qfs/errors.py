"""The errors qfs raises for bad data; any other exception is a bug.

The command line maps every :class:`QfsError` to exit code 2 and prints
its message; ``qfs answer`` instead skips the failing question, answers
the rest and exits 1. The command line does not tell the categories
apart; they say what kind of fault a message describes:

* :class:`MalformedInput`: a file, payload or argument breaks its
  documented format, value range or uniqueness rule;
* :class:`MissingInput`: a document, embedding record, query vector or
  ideal answer that a step needs is absent;
* :class:`EmptyInput`: an input has no items, or fewer than a step needs;
* :class:`DimensionMismatch`: vector or matrix dimensions disagree.

Other faults, such as a config without a required path or a training
loss that became NaN, raise ``QfsError`` itself.
"""


class QfsError(Exception):
    """Base class for all qfs errors."""


class MalformedInput(QfsError):
    """Input breaks its documented format, value range or uniqueness rule."""


class MissingInput(QfsError):
    """Something a step needs is absent from its inputs."""


class EmptyInput(QfsError):
    """An input has no items, or fewer than the step needs."""


class DimensionMismatch(QfsError):
    """Vector or matrix dimensions disagree with the declared dim."""
