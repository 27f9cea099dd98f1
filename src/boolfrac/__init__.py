"""Boolean fractions: an exact algebra of conditional events.

A conditional event (a|b) pairs a consequent with a condition from a
finite Boolean algebra of events. The package provides the normal form
and the operations on conditionals (or_, and_, given, negate, osum,
sasaki, plus the alternative cap_s/cup_s/and_s/vee_s pair), three-valued
pointwise evaluation, exact rational conditional probability, the
verifiability relations between conditionals, a small expression
language with a line-oriented space-file format, and an exhaustive
checker that verifies the algebra's laws over small spaces.

Only the probabilities need rational arithmetic, so `prob`, with
`fractions` and `decimal`, is imported the first time one is asked
for: on the first read of `boolfrac.prob` or of one of its eight names
here (`Measure`, `p_cond`, ...), on the first read of a space file's
measure, and by the laws `t2.13` and `superposition`. Everything else
(the operations, evaluation, the relations and the other laws) runs
without it. From the shell, `prob` and `check` of `t2.13`,
`superposition` or `all` load it; `eval`, `relate`, `profile`, `parse`
and `check` of any other law do not. No command loads `argparse` unless
its request leaves the CLI's plain route (help, an abbreviated or
`=`-joined option, a usage error), which builds an argparse parser.
"""

from .conditional import (
    Conditional,
    and_,
    enumerate_conditionals_bits,
    given,
    make,
    negate,
    or_,
    osum,
    sasaki,
    undefined,
)
from .errors import (
    BadWeight,
    DuplicateName,
    Error,
    NotAPartition,
    NotDisjoint,
    ParseError,
    SpaceMismatch,
    TooLarge,
    UnknownAtom,
    UnknownLaw,
    UnknownName,
    ZeroCondition,
    ZeroTotalWeight,
)
from .lang import (
    SpaceDoc,
    dump,
    format_conditional,
    lower,
    lower_event,
    parse_expr,
    parse_space,
)
from .lawcheck import (
    LAW_IDS,
    LawReport,
    check,
    check_all,
    enumerate_conditionals,
    law_space,
)
from .relations import (
    RELATION_TAGS,
    Subalgebra,
    VerifiabilityProfile,
    compatible,
    decomposition_witness,
    generated_subalgebra,
    holds,
    in_common_subalgebra,
    ortho_family_member,
    orthogonal,
    profile,
    sim_falsifiable,
    sim_verifiable,
)
from .schay import and_s, cap_s, cup_s, schay_iteration_example, vee_s
from .space import Event, SampleSpace, enumerate_events, same_space
from .trivalent import F, T, TruthValue, U, eval_at

_PROB_NAMES = frozenset((
    "AdditiveReport",
    "Measure",
    "additive_law_check",
    "p_cond",
    "p_event",
    "p_or_formula",
    "p_superposition",
    "partition_expansion",
))


def __getattr__(name):
    """Import `prob` on the first read of it or of one of its names, and
    bind those names here, so every later read is a plain one."""
    if name != "prob" and name not in _PROB_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    prob = import_module(".prob", __name__)
    for attr in _PROB_NAMES:
        globals()[attr] = getattr(prob, attr)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _PROB_NAMES | {"prob"})


__all__ = sorted({name for name in globals() if name[0] != "_"} | _PROB_NAMES | {"prob"})
