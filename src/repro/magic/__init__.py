"""Magic-sets compilation for layered LDL1 programs (paper Section 6)."""

from repro.magic.adornment import (
    AdornedProgram,
    AdornedRule,
    adorn,
    adorned_name,
    atom_adornment,
)
from repro.magic.evaluate import (
    MagicResult,
    MagicStats,
    PreparedQuery,
    evaluate_magic,
)
from repro.magic.rewrite import MagicProgram, magic_name, magic_rewrite
from repro.magic.sips import (
    HEAD_NODE,
    Sip,
    SipArc,
    bound_first_sip,
    left_to_right_sip,
    validate_sip,
)
from repro.magic.supplementary import supplementary_rewrite

__all__ = [
    "AdornedProgram",
    "AdornedRule",
    "MagicProgram",
    "MagicResult",
    "MagicStats",
    "PreparedQuery",
    "adorn",
    "adorned_name",
    "atom_adornment",
    "evaluate_magic",
    "HEAD_NODE",
    "Sip",
    "SipArc",
    "bound_first_sip",
    "left_to_right_sip",
    "magic_name",
    "magic_rewrite",
    "supplementary_rewrite",
    "validate_sip",
]
