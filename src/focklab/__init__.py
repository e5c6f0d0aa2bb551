"""Truncated weighted symmetric Fock spaces and Hardy spaces over unitary groups.

The package provides an exact finite model of the weighted symmetric Fock
space, the shift/multiplicative operator groups on the associated space of
entire functions, Haar sampling with Livšic projections and virtual
unitaries, the basis change onto the Hardy space over the unitary group
with its Monte Carlo transform, Gauss-Weierstrass semigroups, and a
Weyl-Schrödinger representation of the complexified Heisenberg group.
"""

from .fock_core import (
    EVector,
    FockVector,
    GRAM_H,
    GRAM_W,
    TruncationSpec,
    exponential_vector,
    hs_polynomial_eval,
    inner,
    polarization,
    symmetric_product,
    tensor_power,
)
from .hardy_chi import (
    HardyChiFunction,
    f_transform,
    f_transform_inverse,
    mc_f_transform,
    norm_convergence_study,
    phi_map,
    phi_map_adjoint,
)
from .hardy_w import (
    HardyWFunction,
    commutator_check,
    directional_derivative,
    evaluate,
    generator_mult,
    multiply_exp,
    shift,
    weyl_group_commutation,
)
from .heisenberg import (
    HeisenbergElement,
    Quaternion,
    QuaternionVector,
    eh_inner,
    g_iso,
    heis_inv,
    heis_mul,
    weyl,
    ws_rep,
)
from .operators import (
    MONOMIAL,
    W_ADJOINT,
    OperatorMatrix,
    adjoint,
    annihilation_monomial,
    creation,
    exp_annihilation,
    exp_creation,
)
from .partitions import BasisKey, YoungDiagram, constant_c, enumerate_keys, h_norm_sq, w_norm_sq
from .semigroups import gaussian_moment, gw_chi, gw_mult, gw_mult_oracle, gw_shift
from .unitary_haar import (
    VirtualUnitary,
    embed_stabilized,
    haar_sample,
    livsic_project,
    pushforward_consistency,
    right_action,
    unitarity_defect,
)

__version__ = "0.1.0"
