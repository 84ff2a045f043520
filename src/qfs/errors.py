"""Exception hierarchy shared across the package.

Every error raised by qfs code is a subclass of :class:`QfsError`, so
callers (notably the CLI) can distinguish data problems from bugs.
"""


class QfsError(Exception):
    """Base class for all qfs errors."""


class MalformedInput(QfsError):
    """A file or payload does not match its documented format."""


class DuplicateId(QfsError):
    """An identifier that must be unique appears more than once."""


class UnknownQuestionType(QfsError):
    """Question type outside {summary, factoid, yesno, list}."""


class EmptyCollection(QfsError):
    """Index construction requires at least one document."""


class EmptyList(QfsError):
    """Min-max normalization requires a non-empty score list."""


class LambdaOutOfRange(QfsError):
    """Interpolation weight must lie in [0, 1]."""


class DimensionMismatch(QfsError):
    """Vector or matrix dimensions disagree with the declared dim."""


class EmptyReferenceList(QfsError):
    """best_reference_f1 needs at least one reference text."""


class DuplicateInReturned(QfsError):
    """Returned document list for evaluation contains duplicates."""


class MaskAllFalse(QfsError):
    """A context-embedding record must mark at least one sentence token."""


class EmptySequence(QfsError):
    """Recurrent encoders require at least one input row."""


class EmptyDataset(QfsError):
    """Training requires a non-empty example list."""


class NonFiniteLoss(QfsError):
    """Training loss became NaN or infinite; aborted with diagnostics."""


class KindMismatch(QfsError):
    """Parameter file holds a different model kind than requested."""


class UnknownDocument(QfsError):
    """A ranked document id is absent from the collection."""


class ScorerInputMissing(QfsError):
    """No embedding record found for a candidate sentence."""


class NoIdealAnswer(QfsError):
    """Label generation needs at least one ideal answer per question."""


class NoCandidates(QfsError):
    """Label generation found no candidate sentences for a question."""


class EmptyCandidateList(QfsError):
    """Answer assembly requires at least one scored sentence."""


class TooFewQuestions(QfsError):
    """Cross-validation needs at least k questions."""
