"""Exact arithmetic for binary expansions in non-integer bases: quasi-greedy
expansions, two-expansion bases and their derived orders, unique-expansion
entropy and dimension bounds."""

from .errors import (
    DomainError,
    UnsupportedBaseError,
    NoRootByCaseError,
    NotFoundWithinBoundsError,
)
from .words import (
    EPSeq,
    ComponentSpec,
    GEN0,
    ZERO_SEQ,
    ONE_SEQ,
    reflect,
    word_inc,
    word_dec,
    word_cmp,
    thue_morse,
    from_word,
    prepend,
    shift,
    lex_cmp,
    check_generator,
    eval_seq,
    format_epseq,
    parse_epseq,
)
from .bases import (
    NumberField,
    FieldElem,
    AlgBase,
    alpha_digits,
    beta_digits,
    alpha_epseq,
    parry_check,
    base_from_alpha,
    cmp_seq_alpha,
)
from .b2core import (
    f_eval,
    f_minpoly,
    f_sign,
    sign_at,
    MonotoneCase,
    monotone_case,
    q_f_base,
    solve_qcd,
    B2Witness,
    certify_b2,
    witness_for_V_base,
    prop62_pair,
)
from .classify import (
    BaseTag,
    BaseClass,
    classify_base,
    is_univoque_seq,
    in_Vq_seq,
    in_A_prime,
    CountResult,
    count_expansions,
)
from .enum_b2 import (
    ReprVector,
    LadderEntry,
    qn_ladder,
    enum_reprs,
    repr_to_seq,
    pair_weight,
    enum_B2,
    derived_order_bound,
    min_derived,
    prop62_witness,
)
from .dimension import (
    UqAutomaton,
    uq_automaton,
    build_automaton,
    path_counts,
    brute_count_words,
    EntropyResult,
    entropy,
    dim_U,
    overapprox_pool,
    b2_local_bound,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "UnsupportedBaseError", "NoRootByCaseError",
    "NotFoundWithinBoundsError",
    "EPSeq", "ComponentSpec", "GEN0", "ZERO_SEQ", "ONE_SEQ",
    "reflect", "word_inc", "word_dec", "word_cmp", "thue_morse",
    "from_word", "prepend", "shift", "lex_cmp", "check_generator",
    "eval_seq", "format_epseq", "parse_epseq",
    "NumberField", "FieldElem", "AlgBase",
    "alpha_digits", "beta_digits", "alpha_epseq", "parry_check",
    "base_from_alpha", "cmp_seq_alpha",
    "f_eval", "f_minpoly", "f_sign", "sign_at",
    "MonotoneCase", "monotone_case", "q_f_base", "solve_qcd",
    "B2Witness", "certify_b2", "witness_for_V_base", "prop62_pair",
    "BaseTag", "BaseClass", "classify_base",
    "is_univoque_seq", "in_Vq_seq", "in_A_prime",
    "CountResult", "count_expansions",
    "ReprVector", "LadderEntry", "qn_ladder", "enum_reprs", "repr_to_seq",
    "pair_weight", "enum_B2", "derived_order_bound", "min_derived",
    "prop62_witness",
    "UqAutomaton", "uq_automaton", "build_automaton", "path_counts",
    "brute_count_words", "EntropyResult", "entropy", "dim_U",
    "overapprox_pool", "b2_local_bound",
    "__version__",
]
