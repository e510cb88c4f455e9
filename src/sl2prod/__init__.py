"""Products of conjugacy classes in SL2(F_q) and PSL2(F_q), q odd, q >= 5.

Closed-form pairwise and triple product laws, constructive witnesses, and
an exhaustive brute-force oracle that certifies every law.
"""

from .field import FieldCtx, eps_shift_solvable, make_field, parse_descriptor
from .mat2 import (BigCell, Mat, Torus, bruhat_compose, bruhat_decompose,
                   bruhat_product, bruhat_trace, conjugate, iter_sl2, mat_det,
                   mat_inv, mat_mul, mat_neg, mat_pow, mat_trace, sl2)
from .classes import (PSLLabel, SL2Label, all_classes_psl, all_classes_sl2,
                      classify_sl2, inverse_class, is_q_good, negate_class,
                      parse_label, parse_psl_label, parse_sl2_label,
                      psl_classify, psl_element_order, psl_inverse_class,
                      psl_lift_pair, psl_project, psl_representative,
                      representative, sort_labels)
from .laws import (ProductLaw, commutator_expressible_psl,
                   psl_distinct_unipotent_product_by_order, psl_pair_product,
                   psl_pair_product_law, psl_pair_product_via_lifts,
                   psl_triple_product, sl2_pair_product, sl2_pair_product_law,
                   sl2_triple_product)
from .oracle import (EnumerationBoundError, GroupTable, VerificationReport,
                     brute_commutator_set, brute_pair_product,
                     brute_pair_product_psl, brute_triple_product,
                     covering_numbers, enumerate_sl2, verify_laws)
from .witness import (CommutatorCert, Factorization, commutator_witness_psl,
                      conjugating_element, factor_pair, factor_pair_psl,
                      macbeath_triple)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
