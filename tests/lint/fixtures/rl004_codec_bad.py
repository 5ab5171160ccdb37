"""RL004 positive fixture: the codec base does not excuse mutability (1 violation)."""

from dataclasses import dataclass

from repro.canon import SpecCodec


@dataclass
class MutableCodecSpec(SpecCodec):
    """Inherits the dict pair but is not frozen."""

    frames: int = 1
