"""girthlab: explicit large-girth Cayley graph families over SL_n(F_p).

Builds the unitriangular generator pairs, verifies freeness at bounded word
length, replays the explicit generation recipes, measures exact girth and
diameter by BFS, and reports spectral girth lower bounds and second
eigenvalues per prime.
"""

from .exactmat import (
    ExactMatrix,
    ParameterError,
    ShapeError,
    Word,
    binom_general,
    eval_word,
    magic_pair,
    power_closed_form,
)
from .modmat import (
    ModMatrix,
    NonInvertibleError,
    decode,
    encode,
    group_order_sl,
    is_prime,
    reduce,
)
from .params import (
    GraphSpec,
    admissible_exponents,
    lucas_binom_mod,
    validate,
)
from .words import (
    FreenessReport,
    RecipeError,
    RecipeReplay,
    SubgroupGenerators,
    freeness_scan,
    identity_word_length_mod_p,
    replay_recipe_qt,
    replay_recipe_sl3_mod3,
    schreier_generators,
)
from .cayley import (
    BudgetExceededError,
    CayleyStats,
    DegenerateSpecError,
    cayley_stats,
    closure,
    dg_table,
    diameter,
    export_dot,
    girth,
    spec_generators,
)
from .spectral import (
    GirthBound,
    SpectralGapReport,
    girth_lower_bound,
    gram_char_poly,
    gram_lambda_max,
    second_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "ModMatrix",
    "Word",
    "GraphSpec",
    "CayleyStats",
    "GirthBound",
    "SpectralGapReport",
    "FreenessReport",
    "SubgroupGenerators",
    "RecipeReplay",
    "ParameterError",
    "ShapeError",
    "NonInvertibleError",
    "DegenerateSpecError",
    "BudgetExceededError",
    "RecipeError",
    "magic_pair",
    "power_closed_form",
    "eval_word",
    "binom_general",
    "reduce",
    "encode",
    "decode",
    "group_order_sl",
    "is_prime",
    "validate",
    "lucas_binom_mod",
    "admissible_exponents",
    "freeness_scan",
    "identity_word_length_mod_p",
    "schreier_generators",
    "replay_recipe_sl3_mod3",
    "replay_recipe_qt",
    "closure",
    "girth",
    "diameter",
    "cayley_stats",
    "dg_table",
    "spec_generators",
    "export_dot",
    "gram_lambda_max",
    "gram_char_poly",
    "girth_lower_bound",
    "second_eigenvalue",
]
