"""Pseudo-metric kernels for non-Hermitian Schrodinger operators.

Each public name is imported from its submodule on first access (PEP 562),
so `import qmetric` loads neither numpy nor any submodule until a name is
used.
"""

import importlib

# public name -> the submodule that defines it
_SUBMODULE = {
    "PhysConstants": "potentials",
    "Domain": "potentials",
    "PotentialSpec": "potentials",
    "constants_preset": "potentials",
    "eval_potential": "potentials",
    "eval_mass_term": "potentials",
    "square_well": "potentials",
    "scattering_potential": "potentials",
    "delta_potential": "potentials",
    "pt_delta_pairs": "potentials",
    "Grid": "kernels",
    "Kernel": "kernels",
    "SeedPair": "kernels",
    "OperatorForm": "kernels",
    "identity_kernel": "kernels",
    "parity_kernel": "kernels",
    "smooth_kernel": "kernels",
    "seed_to_kernel": "kernels",
    "hermiticity_defect": "kernels",
    "operator_form_free": "kernels",
    "kernel_to_csv": "kernels",
    "kernel_from_csv": "kernels",
    "kernel_to_pgm": "kernels",
    "square_well_k_delta": "closed_forms",
    "square_well_eta1": "closed_forms",
    "bender_tan_Q": "closed_forms",
    "scattering_k_delta": "closed_forms",
    "scattering_eta1": "closed_forms",
    "delta_first_iterate": "closed_forms",
    "delta_second_iterate": "closed_forms",
    "deltas_eta1": "closed_forms",
    "preset_w": "closed_forms",
    "preset_seed": "closed_forms",
    "KConfig": "series",
    "SeriesState": "series",
    "apply_K": "series",
    "apply_K_to_identity": "series",
    "apply_K_smooth": "series",
    "apply_K_delta_rule": "series",
    "neumann_series": "series",
    "convergence_bound": "series",
    "DiscretizedHamiltonian": "spectral",
    "BiorthonormalSystem": "spectral",
    "ExceptionalPointError": "spectral",
    "discretize": "spectral",
    "free_box_levels": "spectral",
    "biorthonormalize": "spectral",
    "spectral_metric": "spectral",
    "spectrum_to_csv": "spectral",
    "CheckReport": "verify",
    "kernel_matrix": "verify",
    "kg_residual": "verify",
    "pseudo_hermiticity_residual": "verify",
    "positivity_check": "verify",
    "invertibility_check": "verify",
}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
