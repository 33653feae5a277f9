"""Polarity-based semantics for normal lattice expansion logics.

Finite polarities, compatible frames, concept-lattice complex algebras,
sequent validity, p-morphisms with their dual algebra maps, coproducts,
filter-ideal frames, and the standard translation into two-sorted first
order logic.
"""

__version__ = "0.1.0"

from .algebra import (
    ComplexAlgebra,
    FiniteAlgebra,
    algebra_from_dict,
    build_complex_algebra,
    find_isomorphism,
    load_algebra,
    verify_normality,
)
from .constructions import (
    canonical_embedding,
    coproduct,
    filter_ideal_extension,
    filter_ideal_frame,
    filters,
    ideals,
    product_algebra,
)
from .errors import (
    CapExceededError,
    FormatError,
    IncompatibleFrameError,
    InvalidPMorphismError,
    LekitError,
    NonNormalAlgebraError,
    NotALatticeError,
    ParseError,
    SignatureError,
    SortError,
)
from .fol import (
    eval_fo,
    check_sorts,
    format_fo,
    standard_translate,
    translate_sequent,
)
from .frame import (
    Frame,
    Relation,
    check_compatibility,
    check_compatibility_alt,
    connective_sorts,
    frame_from_dict,
    load_frame,
    save_frame,
    section_zero,
)
from .morphism import (
    DualHom,
    PMorphism,
    check_pmorphism,
    dual_hom,
    dual_pmorphism,
    is_injective,
    is_surjective,
    load_morphism,
)
from .polarity import (
    Concept,
    DEFAULT_CONCEPT_CAP,
    Polarity,
    enumerate_concepts,
)
from .semantics import (
    Model,
    algebra_validates,
    cosatisfies,
    cosatisfies_recursive,
    eval_formula,
    frame_validates,
    model_validates,
    satisfies,
    satisfies_recursive,
)
from .syntax import (
    And,
    BOT,
    Bot,
    Conn,
    Connective,
    Or,
    Prop,
    Sequent,
    Signature,
    TOP,
    Top,
    format_formula,
    format_sequent,
    parse_formula,
    parse_sequent,
    parse_signature,
    props_of,
    depth_of,
    signature_from_dict,
    validate_formula,
)
