"""RL004 negative fixture: frozen Specs that inherit the canon codec base."""

from dataclasses import dataclass

from repro import canon
from repro.canon import SpecCodec


@dataclass(frozen=True)
class InheritedSpec(SpecCodec):
    """The codec base supplies to_dict/from_dict."""

    frames: int = 1


@dataclass(frozen=True)
class DottedSpec(canon.SpecCodec):
    """A dotted base reference counts too."""

    frames: int = 1
