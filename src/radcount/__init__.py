"""Bound-state counting for two-dimensional radial Schrodinger operators.

The package decides, for a nonnegative radial potential V and the operator
-Laplace - alpha*V on the plane, whether the number of negative eigenvalues
grows linearly in alpha and whether the semiclassical (phase-space volume)
limit holds, and cross-validates the classification against direct counting
through angular-momentum channels.
"""

from .potentials import (
    LogPotential,
    NonIntegrableError,
    PotentialSpecError,
    RadialPotential,
    bundled_spec_names,
    catalog_kinds,
    integral_J,
    integral_logweight,
    integral_logweight_grid,
    load_bundled,
    load_spec,
    make_catalog_potential,
    save_spec,
    to_log,
)
from .weakseq import WeakVerdict, ZetaSequence, classify, zeta_sequence
from .spectral1d import (
    BoundaryMode,
    CountResult,
    bs_spectrum,
    count_below,
    eigenvalues_below,
)
from .channels import (
    ChannelBreakdown,
    bs_duality_check,
    channel_count,
    sandwich_check,
    total_count,
)
from .bounds import BoundReport, bound_report, empirical_constant
from .asymptotics import (
    SweepTable,
    delta_link_check,
    sweep,
    weyl_coefficient,
    weyl_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundaryMode",
    "ChannelBreakdown",
    "CountResult",
    "LogPotential",
    "NonIntegrableError",
    "PotentialSpecError",
    "RadialPotential",
    "SweepTable",
    "WeakVerdict",
    "ZetaSequence",
    "bound_report",
    "bs_duality_check",
    "bs_spectrum",
    "bundled_spec_names",
    "catalog_kinds",
    "channel_count",
    "classify",
    "count_below",
    "delta_link_check",
    "eigenvalues_below",
    "empirical_constant",
    "integral_J",
    "integral_logweight",
    "integral_logweight_grid",
    "load_bundled",
    "load_spec",
    "make_catalog_potential",
    "sandwich_check",
    "save_spec",
    "sweep",
    "to_log",
    "total_count",
    "weyl_coefficient",
    "weyl_verdict",
    "zeta_sequence",
    "__version__",
]
