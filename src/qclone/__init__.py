"""Dense-matrix simulations of approximate quantum cloning and deletion
machines, entanglement broadcasting via local copiers, and the associated
fidelity and entanglement measures."""

__version__ = "0.1.0"

from .qcore import (
    BlankState,
    DensityOperator,
    GramSpec,
    MachineIsometry,
    StateVector,
    UnrealizableSpec,
    apply_isometry,
    bell_project,
    bell_state,
    hermitian_eigvals,
    partial_trace,
    partial_transpose,
    realize_gram,
    schmidt,
    tensor,
)
from .measures import (
    concurrence_2q,
    concurrence_pure,
    entropy_of_entanglement,
    eof_from_concurrence,
    fidelity_mixed,
    fidelity_pure,
    herbert_ensembles,
    hs_distance,
    is_npt,
    negativity,
    overlap,
    ppt_verdict,
    von_neumann_entropy,
    w_determinants,
)
from .cloners import (
    CloneReport,
    CloneReports,
    MachineSpec,
    build_machine,
    clone_report,
    clone_reports,
    closed_form_fidelity,
)
from .deleters import (
    DeleterSpec,
    DeletionReport,
    DeletionReports,
    build_deleter,
    delete_report,
    delete_reports,
    transformer,
)
from .hybrid import HybridSpec, hybrid_machine
from .concat import PipelineSpec, pipeline_averages, run_pipeline
