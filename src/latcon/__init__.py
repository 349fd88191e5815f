"""Congruence counting, planarity and enumeration for finite lattices.

The names of ``latcon.enumeration`` load on first use (PEP 562), so
importing the package, or running a command that reads one lattice
file, does not load the sweeps.
"""

from .congruence import con_count, con_count_oracle, jir_quasiorder
from .lattice import (
    Lattice,
    NotLatticeError,
    SizeError,
    dual_lattice,
    lattice_from_covers,
    make_boolean,
    make_chain,
    make_l_family,
    make_mk,
    make_ordinal_sum,
    make_product,
    validate_lattice,
)
from .planarity import (
    CatalogValidationError,
    KRCatalogEntry,
    PlanarityVerdict,
    is_dismantlable,
    is_planar_kr,
    kr_catalog,
    planar_realizer,
    realizer_is_valid,
)
from .poset import (
    CycleError,
    Embedding,
    Poset,
    canonical_form,
    count_downsets,
    dual,
    find_embedding,
    poset_from_covers,
)

__version__ = "0.1.0"

_ENUMERATION_NAMES = frozenset(
    {
        "ClassRecord",
        "SpectrumReport",
        "TheoremReport",
        "enumerate_lattices",
        "sample_lattices",
        "spectrum",
        "verify_theorem",
    }
)


def __getattr__(name: str):
    if name in _ENUMERATION_NAMES:
        from . import enumeration

        return getattr(enumeration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
