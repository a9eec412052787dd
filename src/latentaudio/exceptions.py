"""Exception types shared across the toolkit.

Plain OS-level failures (unreadable/unwritable files) are left to the
built-in OSError hierarchy; everything domain-specific gets a class here
so callers can tell malformed input from misuse.
"""


class LatentAudioError(Exception):
    """Base class for all toolkit errors."""


class MalformedWavError(LatentAudioError):
    """WAV file with a broken header or inconsistent chunk sizes."""


class UnsupportedEncodingError(LatentAudioError):
    """WAV encoding other than PCM16, PCM24 or IEEE float32."""


class RateMismatchError(LatentAudioError):
    """Operation on buffers whose sample rates disagree."""


class TooShortError(LatentAudioError):
    """Audio shorter than one analysis or model window."""


class ShapeMismatchError(LatentAudioError):
    """Vector or matrix with the wrong dimensions for the model."""


class EmptyDatasetError(LatentAudioError):
    """Training requested on an empty window collection, or a dataset
    directory that is missing or holds no .wav file."""


class FormatVersionMismatchError(LatentAudioError):
    """Container file written by an unsupported format version."""


class CorruptFileError(LatentAudioError):
    """Container file that is truncated or fails its checksum."""


class BadStepError(LatentAudioError):
    """Stepwise sweep whose step is not finite and positive, or whose range
    is negative or gives no finite range / step."""


class CurveLengthMismatchError(LatentAudioError):
    """Interpolation curve length differs from the window count."""


class EmptyInputError(LatentAudioError):
    """Map training requested on an empty thumbnail collection."""


class ConfigMismatchError(LatentAudioError):
    """Thumbnail and map built from different feature recipes, or a CLI
    configuration that does not hold together: a malformed or unknown
    config key, a sidecar of another command, a value outside its
    choices, a missing required option, a malformed --unit, or an --out
    that is a directory or whose parent is not an existing directory
    (refused before the command runs, so nothing is written)."""


class EmptySpecError(LatentAudioError):
    """Curve specification with no content."""


class LoudInputError(LatentAudioError):
    """Sampled synthesis input too loud for the model: at some window its
    posterior sigma, exp(logvar / 2), is not finite. index is 0 for the first
    input (a) and 1 for the second (b); name defaults to "input a" or "input b"."""

    def __init__(self, index: int, window: int, name: str = ""):
        super().__init__(f"{name or 'input ' + 'ab'[index]}: window {window} encodes to a "
                         "non-finite sigma in sample mode, so the input is too loud for the "
                         "model; peak-normalize it (--normalize)")
        self.index, self.window = index, window


class NonFiniteLossError(LatentAudioError):
    """Training loss became NaN or infinite."""
