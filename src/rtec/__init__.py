"""rtec: regular transducer expressions compiled to parsers and reversible
two-way evaluators, with brute-force oracles for cross-validation."""

from .expr import (Expr, LabeledExpr, Regex, label_occurrences, nl,
                   parse_regex, parse_rte, pretty, size, width)
from .glushkov import glushkov
from .machines import (Dfa, Nfa, OneWayTransducer, TwoWayTransducer,
                       complement_dfa, determinize, enumerate_outputs,
                       is_codeterministic, is_deterministic, is_reversible,
                       minimize_dfa, nfa_accepts, run_two_way)
from .oracle import (BoundedSet, Oracle, OracleLimitError,
                     check_kstar_conditions, re_match)
from .parser_build import build_parser, parser_invariants_ok
from .evaluator_build import build_evaluator
from .pipeline import (MacroStepTable, Pipeline, UniformParser,
                       build_functionality_checker, build_pipeline,
                       build_unambiguity_acceptor, check_size_bounds,
                       domain_dfas, uniformize_parser)

__version__ = "0.1.0"
