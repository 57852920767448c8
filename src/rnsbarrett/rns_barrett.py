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

A peel digit costs about the same at any modulus width, and no step
depends on how M, g or h is factored into moduli. So a context whose
narrow channels fall into groups (``rns.ChannelGroups``, by ``_group``,
the package's one group rule) runs its whole pass on the group moduli,
its pass set: channel operands are combined into group residues once on
entry and the result is split into channels once on exit, and both stages
are built over the pass set. At the default word size every group is one
channel and the pass set is the context's own; at 30-bit words a 2048-bit
pass peels 38 digits instead of 278.
"""

from dataclasses import dataclass, field
from math import prod
from operator import mul

from .barrett import BarrettParams, RangeCase, capacity_condition, make_params
from .base_extension import base_extend
from .errors import SetMismatch
from .quotient import ModuliPartition, _sorted_indices, _stage_partitions
from .quotient import quotient_by_moduli_product
from .rns import ChannelGroups, ModuliSet, PartialResidueVector, ResidueVector, _moduli, encode


# The default word size of ``selection``, and the most bits of moduli a
# group holds, so at the default every group is one channel.
DEFAULT_WORD_BITS = 254


def _group(mset: ModuliSet, g_indices, h_indices):
    """The set a context's pass runs on, g and h as indices into it, the groups.

    Channels have four roles: in g only, in h only, in both, in neither.
    Within each role, in ascending order, a group takes the next channel
    while its members' bit lengths sum to at most ``DEFAULT_WORD_BITS``,
    so a channel at least that wide is a group of its own and every group
    lies wholly inside or outside g and h. When every group is one channel
    the groups are None and the pass runs on ``mset`` itself.
    """
    moduli = mset.moduli
    in_g, in_h = set(g_indices), set(h_indices)
    neither = set(range(len(moduli))) - in_g - in_h
    members = []
    for role in (in_g - in_h, in_h - in_g, in_g & in_h, neither):
        width = DEFAULT_WORD_BITS  # each role starts a group
        for i in sorted(role):
            bits = moduli[i].bit_length()
            if width + bits > DEFAULT_WORD_BITS:
                members.append([])
                width = 0
            members[-1].append(i)
            width += bits
    if len(members) == len(moduli):
        return mset, g_indices, h_indices, None
    groups = ChannelGroups(mset, members)
    g_ids = tuple(j for j, group in enumerate(groups.members) if group[0] in in_g)
    h_ids = tuple(j for j, group in enumerate(groups.members) if group[0] in in_h)
    return groups.pass_set, g_ids, h_ids, groups


@dataclass(slots=True, unsafe_hash=True)
class RnsBarrettContext:
    """Everything one modulus needs for residue-form multiply-reduce.

    ``g_indices`` and ``h_indices`` select the moduli whose products are the
    two scaling divisors; the sets may overlap, and ``g_indices`` may be
    empty (g = 1, first quotient degenerates to the identity). Instances are
    immutable in use (nothing assigns to them after construction) and safe
    to share across threads.

    The pass runs on ``_pass_set``, the set ``_group`` returns: the group
    moduli of ``_groups``, or ``mset`` itself with ``_groups`` None. The
    first context with groups built on a set registers them there too, for
    wide encodes. mu and N are stored once, on the pass set; ``mu_rv`` and
    ``n_rv`` compute their channel residues. The stages' partitions and
    the peel tables they share come from ``quotient._stage_partitions``:
    two tables when g is nonempty and disjoint from h, which is every
    context ``select_context`` builds, and two per partition otherwise.
    """

    mset: ModuliSet
    params: BarrettParams
    g_indices: tuple[int, ...]
    h_indices: tuple[int, ...]
    _pass_set: ModuliSet = field(init=False, repr=False, compare=False)
    _groups: ChannelGroups | None = field(init=False, repr=False, compare=False)
    _mu: ResidueVector = field(init=False, repr=False)
    _n: ResidueVector = field(init=False, repr=False)
    _g_partition: ModuliPartition | None = field(init=False, repr=False)
    _h_partition: ModuliPartition = field(init=False, repr=False)

    def __post_init__(self):
        pass_set, g_ids, h_ids, self._groups = _group(
            self.mset, self.g_indices, self.h_indices
        )
        if self._groups is not None and self.mset._groups is None:
            self.mset._groups = self._groups
        self._pass_set = pass_set
        self._g_partition, self._h_partition = _stage_partitions(pass_set, g_ids, h_ids)
        self._mu = encode(self.params.mu, pass_set)
        self._n = encode(self.params.modulus, pass_set)

    @property
    def mu_rv(self) -> ResidueVector:
        """mu's residues on the channels."""
        return self._mu if self._groups is None else self._groups.split(self._mu)

    @property
    def n_rv(self) -> ResidueVector:
        """N's residues on the channels."""
        return self._n if self._groups is None else self._groups.split(self._n)


@dataclass(frozen=True, slots=True)
class StepTrace:
    """Intermediate residue vectors of one multiply-reduce pass, on the channels.

    Partial vectors keep their unknown channels structurally absent, which
    is how the trace records which channels each quotient determined: those
    outside g for ``d_partial`` (every channel when g = 1), outside h for
    ``q_partial``.
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
    integers. Raises ConditionViolation naming whichever condition fails,
    and TypeError unless ``ms`` is a ModuliSet.
    """
    n = len(_moduli(ms))
    g_idx = _sorted_indices(n, g_indices, "g_indices")
    h_idx = _sorted_indices(n, h_indices, "h_indices")
    g = prod((ms.moduli[i] for i in g_idx), start=1)
    h = prod((ms.moduli[i] for i in h_idx), start=1)
    params = make_params(modulus, g, h, case)
    capacity_condition(modulus, h, ms.product, params.case).require()
    return RnsBarrettContext(mset=ms, params=params, g_indices=g_idx, h_indices=h_idx)


def _check_operands(ctx: RnsBarrettContext, *operands) -> ModuliSet:
    """The set the operands are on: ``ctx.mset`` or ``ctx._pass_set``.

    Raises TypeError unless each is a ResidueVector, and SetMismatch unless
    all are on the same one of the two sets. Without groups both are
    ``ctx.mset``.
    """
    on = None
    for v in operands:
        if not isinstance(v, ResidueVector):
            raise TypeError(f"operands must be ResidueVectors, not {type(v).__name__}")
        ms = v.mset
        if ms is on:
            continue
        if ms is ctx.mset or ms == ctx.mset:
            ms = ctx.mset
        elif ms is ctx._pass_set or ms == ctx._pass_set:
            ms = ctx._pass_set
        else:
            raise SetMismatch("operands do not belong to the context's moduli set")
        if on is not None and ms is not on:
            raise SetMismatch("one operand is on the channels, the other on the pass set")
        on = ms
    return on


def _multiply_reduce(a: ResidueVector, b: ResidueVector, ctx: RnsBarrettContext, on):
    """One pass on the pass set: x, d_full, e, q_full and c, StepTrace's full vectors.

    ``on`` is the operands' set, from ``_check_operands``. Channel operands
    on a context with groups have their products a_i * b_i combined into
    the pass set's x once; pass-set operands multiply there directly.
    Every later vector is on the pass set.
    """
    if on is ctx._pass_set:
        x = a * b
    else:
        x = ctx._groups.combine(list(map(mul, a.values, b.values)))
    if ctx._g_partition is None:
        d_full = x  # g = 1: the first quotient is x itself
    else:
        d_full = base_extend(quotient_by_moduli_product(x, ctx._g_partition))
    e = d_full * ctx._mu
    q_full = base_extend(quotient_by_moduli_product(e, ctx._h_partition))
    return x, d_full, e, q_full, x - q_full * ctx._n


def bmm(a: ResidueVector, b: ResidueVector, ctx: RnsBarrettContext) -> ResidueVector:
    """Residues of a representative of a*b mod n, in [0, output_bound * n).

    The decoded operands must lie in [0, input_bound * n); that is the
    caller's contract, since checking it would require a decode. The result
    is exactly what the scalar ``barrett.modmul`` computes for the same
    operands and constants, not merely congruent to it.

    Both operands are on the channels, ``ctx.mset``, or both on the pass
    set, ``ctx._pass_set``, and the result is on the same set: a chain of
    passes such as ``bmm_modexp``'s combines into the pass set once and
    splits once.
    """
    on = _check_operands(ctx, a, b)
    c = _multiply_reduce(a, b, ctx, on)[-1]
    return c if on is ctx._pass_set else ctx._groups.split(c)


def trace_bmm(
    a: ResidueVector, b: ResidueVector, ctx: RnsBarrettContext
) -> StepTrace:
    """Run one multiply-reduce pass and keep every intermediate, split into channels.

    The operands are on either of ``bmm``'s two sets; the trace is the same.
    Each partial vector is its full vector on the channels outside the
    divisor, since a quotient determines exactly those and base extension
    keeps them as they are; every group lies wholly inside or outside g
    and h, so that holds on the pass set too.
    """
    vectors = _multiply_reduce(a, b, ctx, _check_operands(ctx, a, b))
    if ctx._groups is not None:
        vectors = map(ctx._groups.split, vectors)
    x, d_full, e, q_full, c = vectors
    d_partial = _outside(d_full, ctx.g_indices)
    return StepTrace(x, d_partial, d_full, e, _outside(q_full, ctx.h_indices), q_full, c)


def _outside(rv: ResidueVector, divisor_indices) -> PartialResidueVector:
    """``rv`` on the channels outside ``divisor_indices``."""
    divisor = set(divisor_indices)
    return PartialResidueVector._reduced(
        {i: v for i, v in enumerate(rv.values) if i not in divisor}, rv.mset
    )
