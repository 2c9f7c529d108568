"""Desk-scale lab for duality-based algebraic automata theory.

Finite (ordered) algebras in predual variety pairs, enriched deterministic
automata, regular-language derivatives, dual generated D-monoids, preimage
constructions, and bounded Eilenberg-correspondence checks.
"""

from .algebra import (
    AlgMorphism,
    BoundExceeded,
    CapExceeded,
    FactorizationPair,
    FinAlgebra,
    InternalInvariantError,
    StructureError,
    are_isomorphic,
    check_morphism,
    combine_elements,
    enumerate_algebras,
    factorize,
    free_algebra,
    generated_subalgebra,
    make_algebra,
    make_morphism,
    product,
    validate_algebra,
)
from .duality import (
    MAIN_PAIRS,
    PAIRS,
    canonical_constants,
    dual_morphism,
    dual_object,
    eta,
    verify_preduality,
)
from .langlib import (
    DMonoidMorphismFree,
    FreeElement,
    RationalSeries,
    RegularLanguage,
    RegexSyntaxError,
    apply_free,
    eval_language,
    free_mul,
    free_word,
    free_zero,
    left_deriv,
    make_free,
    make_free_morphism,
    make_series,
    minimize_series,
    parse_regex,
    preimage_language,
    rev_free,
    reversal,
    right_deriv,
    series_of_language,
    series_preimage,
)
from .automata import (
    Coalgebra,
    LAlgebra,
    dual_automaton,
    dual_automaton_inv,
    dual_generated_monoid,
    generated_local_variety,
    is_local_variety,
    is_subcoalgebra_of_rho,
    language_of_output,
    language_of_state,
    languages_of,
    make_coalgebra,
    make_lalgebra,
    right_derivative_view,
    run_word,
    shift_initial,
    shift_initial_co,
    syntactic_lalgebra,
)
from .monoids import (
    DMonoid,
    GeneratedDMonoid,
    are_dmonoids_isomorphic,
    associated_lalgebra,
    dagger_free,
    divides,
    make_dmonoid,
    subdirect_product,
    transition_dmonoid,
    validate_dmonoid,
)
from .preimage import (
    algebra_preimage,
    alpha_x,
    check_preimage_laws,
    coalgebra_preimage,
    default_corpus,
)
from .varieties import (
    check_eilenberg_simple,
    check_simvargen,
    free_monoid_in_simple_pseudovariety,
    languages_of_simple_pseudovariety,
    recognizes_language,
    simple_variety_languages,
)

__all__ = [name for name in dir() if not name.startswith("_")]
