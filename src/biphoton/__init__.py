"""Numerics for attosecond-entangled XUV photon pairs from two-photon decay
of metastable helium-like atoms: spheroid-cavity polarization transport, pair
spectra and time correlations, and excitation-scheme rate budgets."""

from .cavity import (
    Spheroid,
    ThetaConvergenceError,
    angular_jacobian,
    theta_curve,
    theta_factor_mc,
    theta_factor_quadrature,
)
from .registry import SpeciesData, SpeciesNotFound, default_registry, species
from .reporting import ReproRow, ReproTable, Scenario, SchemaError, repro_report, run_scenario
from .schemes import (
    NonFiniteRateError,
    RateReport,
    ReportEntry,
    absorption_coefficient,
    attenuation_fraction,
    biphoton_rate_narrowband,
    biphoton_rate_sequential,
    collection_fraction,
    etpa_ion_rate,
    four_photon_rabi,
    four_photon_rate,
    four_photon_rate_broadband,
    lz_integral,
    one_photon_rate,
    r_trans,
    scrap_biphoton_rate,
    scrap_transfer_probability,
    steady_state_fraction,
)
from .spectrum import (
    BiphotonSpectrum,
    CorrelationSeries,
    CorrelationTime,
    FlatChain,
    PoleChain,
    correlation_function,
    correlation_time,
    flat_correlation_closed_form,
    hydrogenic_scaled,
    provider_flat,
    provider_pole,
    spectral_amplitude,
    two_photon_decay_rate,
)
from .units import (
    Quantity,
    UnknownUnitError,
    atoms_in_focal_volume,
    intensity_to_field,
    number_density,
    photon_flux,
    photon_flux_density,
)

__version__ = "0.1.0"
