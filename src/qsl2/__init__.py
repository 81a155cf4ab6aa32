"""Exact engine for the quantum SL(2) coordinate ring at a root of unity.

The package proves, by exact computation, that the ring is a free module
of rank l^3 over its l-th-power (classical) subalgebra, exhibits the
explicit basis and elimination relations, certifies the result with an
independent brute-force linear-algebra oracle, and provides the two
localization charts plus a closure diagnostic for the anomalous root
order 2l with l odd.
"""

from .cyclo import (
    Cyclotomic,
    RootSpec,
    cyclotomic_from_json,
    cyclotomic_polynomial,
    euler_phi,
    make_root_spec,
    p_coeff,
    p_expansion,
    remark_root_spec,
    root_spec_from_json,
    root_spec_to_json,
    zeta_pow,
)
from .qalgebra import (
    ClassicalElement,
    ClassicalMonomial,
    QElement,
    QMonomial,
    TensorElement,
    antipode,
    classical_mul,
    coproduct,
    counit,
    qelement_from_json,
    qmul,
    straighten,
    tensor_mul,
)
from .frobenius import (
    ClosureReport,
    ModuleElement,
    central_reduce,
    closure_diagnostic,
    is_central,
    lift,
    module_recompose,
)
from .basis import (
    Decomposition,
    DegreeBoundError,
    FreenessError,
    FreenessReport,
    LocalizedElement,
    basis_index,
    clear_denominators,
    decompose,
    decomposition_from_json,
    eliminate_a_family,
    eliminate_d_family,
    enumerate_basis,
    is_basis_monomial,
    localize,
    oracle_decompose,
    recompose,
    verify_freeness,
)
from .exactla import ExactMatrix, nullspace, rref

__version__ = "0.1.0"
