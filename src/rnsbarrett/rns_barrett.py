"""The Barrett modular multiplier that never leaves residue form.

Multiplying two residue vectors channel-wise yields the residues of the
double-width product x. The quotient estimate needs x // g and e // h;
choosing g and h as subproducts of the moduli turns both into channel
peeling (``quotient``), each followed by a base extension (``base_extension``)
to repopulate the peeled channels. The closing step x - q*n is channel
arithmetic again, so no stage of the pipeline converts to a big integer.

For the residues to mean what they should, every intermediate integer must
stay below the moduli product M. The largest intermediate is the
mu-product e, bounded by input_bound^2 * h * n, which is what the capacity
condition (capacity_factor * h * n < M) guarantees. The same bounds keep
both base extensions inside their contract: the first quotient is below
M/g and the second below M/h.
"""

from dataclasses import dataclass, field
from math import prod

from .barrett import BarrettParams, RangeCase, capacity_condition, make_params
from .base_extension import base_extend
from .errors import SetMismatch
from .quotient import ModuliPartition, _sorted_indices, _stage_partitions
from .quotient import quotient_by_moduli_product
from .rns import ModuliSet, PartialResidueVector, ResidueVector, encode


@dataclass(slots=True, unsafe_hash=True)
class RnsBarrettContext:
    """Everything one modulus needs for residue-form multiply-reduce.

    ``g_indices`` and ``h_indices`` select the moduli whose products are the
    two scaling divisors; the sets may overlap, and ``g_indices`` may be
    empty (g = 1, first quotient degenerates to the identity). Instances are
    immutable in use (nothing assigns to them after construction) and safe
    to share across threads.

    The stages' partitions and the peel tables they share come from
    ``quotient._stage_partitions``: two tables when g is nonempty and
    disjoint from h, which is every context ``select_context`` builds, and
    two per partition otherwise.
    """

    mset: ModuliSet
    params: BarrettParams
    g_indices: tuple[int, ...]
    h_indices: tuple[int, ...]
    mu_rv: ResidueVector
    n_rv: ResidueVector
    _g_partition: ModuliPartition | None = field(init=False, repr=False)
    _h_partition: ModuliPartition = field(init=False, repr=False)

    def __post_init__(self):
        self._g_partition, self._h_partition = _stage_partitions(
            self.mset, self.g_indices, self.h_indices
        )


@dataclass(frozen=True, slots=True)
class StepTrace:
    """Intermediate residue vectors of one multiply-reduce pass.

    Partial vectors keep their unknown channels structurally absent, which
    is how the trace records which channels each quotient determined.
    """

    x: ResidueVector
    d_partial: PartialResidueVector
    d_full: ResidueVector
    e: ResidueVector
    q_partial: PartialResidueVector
    q_full: ResidueVector
    c: ResidueVector


def make_context(
    ms: ModuliSet, modulus: int, g_indices, h_indices, case=RangeCase.CASE1
) -> RnsBarrettContext:
    """Validate divisor choices against the moduli set and precompute.

    On top of the scalar case conditions this enforces the capacity
    condition capacity_factor * h * modulus < M, without which intermediates
    would wrap around M and the residues would stop describing the true
    integers. Raises ConditionViolation naming whichever condition fails.
    """
    n = len(ms.moduli)
    g_idx = _sorted_indices(n, g_indices, "g_indices")
    h_idx = _sorted_indices(n, h_indices, "h_indices")
    g = prod((ms.moduli[i] for i in g_idx), start=1)
    h = prod((ms.moduli[i] for i in h_idx), start=1)
    params = make_params(modulus, g, h, case)
    capacity_condition(modulus, h, ms.product, params.case).require()
    return RnsBarrettContext(
        mset=ms,
        params=params,
        g_indices=g_idx,
        h_indices=h_idx,
        mu_rv=encode(params.mu, ms),
        n_rv=encode(modulus, ms),
    )


def _multiply_reduce(a: ResidueVector, b: ResidueVector, ctx: RnsBarrettContext):
    """One pass; returns StepTrace's fields in order, d_partial None if g = 1."""
    mset = ctx.mset
    if (a.mset is not mset and a.mset != mset) or (b.mset is not mset and b.mset != mset):
        raise SetMismatch("operands do not belong to the context's moduli set")
    x = a * b
    if ctx._g_partition is None:
        # g = 1: the first quotient is x itself, already known everywhere.
        d_partial = None
        d_full = x
    else:
        d_partial = quotient_by_moduli_product(x, ctx._g_partition)
        d_full = base_extend(d_partial)
    e = d_full * ctx.mu_rv
    q_partial = quotient_by_moduli_product(e, ctx._h_partition)
    q_full = base_extend(q_partial)
    c = x - q_full * ctx.n_rv
    return x, d_partial, d_full, e, q_partial, q_full, c


def bmm(a: ResidueVector, b: ResidueVector, ctx: RnsBarrettContext) -> ResidueVector:
    """Residues of a representative of a*b mod n, in [0, output_bound * n).

    The decoded operands must lie in [0, input_bound * n); that is the
    caller's contract, since checking it would require a decode. The result
    is exactly what the scalar ``barrett.modmul`` computes for the same
    operands and constants, not merely congruent to it.
    """
    return _multiply_reduce(a, b, ctx)[-1]


def trace_bmm(
    a: ResidueVector, b: ResidueVector, ctx: RnsBarrettContext
) -> StepTrace:
    """Run one multiply-reduce pass and keep every intermediate vector."""
    x, d_partial, *rest = _multiply_reduce(a, b, ctx)
    if d_partial is None:
        d_partial = PartialResidueVector._reduced(dict(enumerate(x.values)), ctx.mset)
    return StepTrace(x, d_partial, *rest)
