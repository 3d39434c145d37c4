"""Exact ranks and alternating-sum decompositions on countable ordinal spaces."""

from .ordinal import (Ordinal, Parity, Kind, ZERO, ONE, W, add, mul, compare,
                      parity, classify, fundamental_sequence, parse_ordinal,
                      format_ordinal, omega_power, from_int)
from .space import (SpaceDesc, Topology, BorelClass, base_topology, closure,
                    cb_derivative, borel_class, refine, member, is_empty,
                    subset, sem_eq)
from .functions import (StepFn, FnFamily, UniformPresentation, make_stepfn,
                        char_fn, constant, oscillation, clamp_hk,
                        semi_borel_class, usc_check, monotonize_and_diff)
from .family import TransfiniteFamily, Segment, tails_family, explicit_family
from .derivative import (DerivativeOp, SeparationDeriv, OscDeriv, ConvDeriv,
                         CantorBendixson, Budget, apply, iterate)
from .altsum import (DUSBSeq, ComboSeq, LazyDUSB, verify_dusb, altsum_eval,
                     exit_parity_eval, build_char_decomposition,
                     build_step_decomposition, build_uniform_decomposition,
                     eval_to_precision, length_upper_certificate)
from .ranks import (RankReport, NotStabilized, alpha_pair, alpha_fn, beta,
                    gamma_seq, alpha_xi_verify, class_membership,
                    is_pseudouniform)
from .pseudouniform import (PhiWitness, build_Bk, build_P_eta,
                            certify_pseudouniform, phi_generate,
                            phi_step_and_sum)
from .fixtures import Fixture, load_fixture, fixture_to_sexpr
