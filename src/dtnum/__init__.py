"""Numeration systems generated by substitutions.

Build systems for N, the negative integers, or all of Z from a
substitution and a seed, compute and invert digit representations,
decide whether the system is positional (with weight sequences or a
counterexample certificate), and classify fixed-point systems against
Bertrand/Parry numeration. Everything is exact integer arithmetic.

``import dtnum`` loads no submodule: each public name below imports its
module on first use (PEP 562), so a command-line call that only
represents integers never compiles the positionality or classification
code.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it serves
_EXPORTS = {
    "core": """DOMAINS Domain NumerationSystem SeedSpec Substitution find_seeds
        first_letter_cycle image_length is_primitive last_letter_cycle make_system
        minimal_period parse_seed parse_substitution reachable_letters restrict
        substitution_from_text validate_seed""",
    "numeration": """AdmissibleSequence AdmissibleStep DigitWord decompose_prefix rep
        rep_classic_N val val_classic_N""",
    "trees": "ExpansionOracle TreeNode TreeSlice expand oracle_rep to_dot to_tsv",
    "positionality": """ConditionC ConsistentWeights Counterexample
        PositionalityReport ResidueSets WeightContradiction WeightTable
        check_positional compute_residue_sets evaluate_with_weights
        fit_weights_oracle weights""",
    "classify": """BERTRAND_CLASSES FabreForm UPWord bertrand_classify
        classification_json expansion_word fabre_form fabre_like_periodic
        inverse_quasi_greedy nonfinal_letters parry_check quasi_greedy simplify
        tree_shape_equal""",
}
# a submodule name maps to itself: ``dtnum.errors`` is the module
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULE_OF.update({module: module for module in (*_EXPORTS, "errors")})

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
