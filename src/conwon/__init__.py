"""Toolkit for the logic of conditional weak ontic necessity.

Names resolve lazily (PEP 562): ``import conwon`` loads no submodule, and
the first use of an exported name imports only the module defining it.
"""

import importlib

_MODULE_OF = {
    **dict.fromkeys(
        ("And", "Atom", "CondBox", "CondCorner", "DialectError", "Falsum", "Formula", "Not",
         "ParseError", "classify", "is_closed", "is_flat", "is_propositional", "modal_depth",
         "parse_formula", "render", "translate_flat"),
        "formula"),
    **dict.fromkeys(
        ("Model", "OrderedDefaultSet", "SchemaError", "SequenceContext", "core", "expected",
         "hierarchy", "load_context", "load_model", "theta", "update"),
        "models"),
    **dict.fromkeys(
        ("ContextualizedPointedModel", "SearchBounds", "evaluate", "extension",
         "find_countermodel"),
        "semantics"),
    **dict.fromkeys(("RewriteError", "rewrite_step", "sigma"), "reduction"),
    **dict.fromkeys(
        ("PseudoSphereModelV", "context_to_partition", "eval_v", "flat_equivalence_check",
         "partition_to_context"),
        "lewis"),
    **dict.fromkeys(("check_proof", "load_proof", "match_schema", "soundness_sweep"), "proofs"),
}

__all__ = sorted({*_MODULE_OF, *_MODULE_OF.values()})


def __getattr__(name):
    if name in _MODULE_OF.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
