"""kdvlab: exact KdV-hierarchy algebra and a periodic pseudospectral lab."""

__version__ = "0.1.0"
