"""Symmetric four-term recurrence polynomials and their chain physics."""

from .recurrence import Coefficients, InitialValues, SequenceWindow
from .closedform import CharacteristicData, RootClass, characterize
from .chain import Arrow, ChainParams, CrossingRecord, EigenMode
from .kitaev import KitaevParams
from .transport import LeadParams, TransportSetup

__version__ = "0.1.0"

__all__ = [
    "Arrow", "ChainParams", "CharacteristicData", "Coefficients",
    "CrossingRecord", "EigenMode", "InitialValues", "KitaevParams",
    "LeadParams", "RootClass", "SequenceWindow", "TransportSetup",
    "characterize", "__version__",
]
