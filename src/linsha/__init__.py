"""Workbench for linearised SHA-256 variants.

Three strands of analysis share this package:

* word-level linear algebra over Z_2^32 that derives collision-producing
  message differences for the fully ADD-linearised compression function,
* probability accounting and Monte Carlo checks for the variant that keeps
  Maj/Ch but drops the diffusion S-boxes,
* low-weight codeword search in the GF(2) linear code spanned by the
  XOR-linearised message expansion.

`import linsha` loads none of the layer modules: each public name below
loads its home module on first use (PEP 562), so a program pays only for
the strands it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name of the package, and the layer module that defines it
_API = {name: module for module, names in (
    ("primitives", "BoolMode ExpansionKind SboxMode ch compress expand maj big_sigma0 "
                   "big_sigma1 small_sigma0 small_sigma1"),
    ("variants", "VariantConfig make_variant"),
    ("ringalg", "build_E solve_disturbance_kernel"),
    ("disturbance", "CORRECTION_COEFFS build_characteristic delay find_collision_add_linear "
                    "propagate"),
    ("boolanalysis", "FirstStepsError boolean_diff_table derive_activity "
                     "isolated_condition_count monte_carlo_local_collision msb_disturbance "
                     "satisfy_first16"),
    ("codewords", "GeneratorMatrix SearchParams build_generator extend_codeword fig2_sweep "
                  "low_weight_search single_bit_census verify_codeword"),
) for name in names.split()}

__all__ = list(_API)


def __getattr__(name: str):
    """A public name, read from its home module, or a layer module itself."""
    if name in _API:
        return getattr(import_module(f"{__name__}.{_API[name]}"), name)
    if name in _API.values():
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_API})
