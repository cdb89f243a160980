"""Block structure over dyadic scales and the assembled parameter set.

Scales n_k = 2^k are grouped into consecutive blocks.  Block l collects
the indices whose mass sum a_k/k reaches that block's target; its horizon
is the largest scale it contains.  Odd-position blocks carry three-valued
site variables (rare symmetric hits), even-position blocks carry Gaussian
site variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ParamsError
from .weights import WeightMode, WeightSchedule, build_weights


class BlockParity(Enum):
    THREE_VALUED = "three_valued"
    GAUSSIAN = "gaussian"


def parity_of(index: int) -> BlockParity:
    return BlockParity.THREE_VALUED if index % 2 == 1 else BlockParity.GAUSSIAN


class TargetKind(Enum):
    DOUBLE_EXP = "double_exp"
    GEOMETRIC = "geometric"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class MassTarget:
    """Block mass targets with an absolute completion tolerance.

    DOUBLE_EXP asks block l for mass 2^(2^l); GEOMETRIC(rho) for rho^l;
    EXPLICIT takes a finite list of targets.  A block is complete once its
    mass reaches target - tolerance.
    """

    kind: TargetKind
    rho: float = 4.0
    explicit: tuple[float, ...] = ()
    tolerance: float = 1.0

    def target(self, index: int) -> float:
        if self.kind is TargetKind.DOUBLE_EXP:
            e = 2 ** index
            return float(2.0 ** e) if e < 1024 else float("inf")
        if self.kind is TargetKind.GEOMETRIC:
            return float(self.rho ** index)
        if index <= len(self.explicit):
            return float(self.explicit[index - 1])
        return float("inf")

    @staticmethod
    def geometric(rho: float = 4.0, tolerance: float = 1.0) -> "MassTarget":
        if rho <= 0:
            raise ParamsError("rho must be positive", rho=rho)
        return MassTarget(TargetKind.GEOMETRIC, rho=rho, tolerance=tolerance)

    @staticmethod
    def double_exp(tolerance: float = 1.0) -> "MassTarget":
        return MassTarget(TargetKind.DOUBLE_EXP, tolerance=tolerance)

    @staticmethod
    def explicit_targets(targets, tolerance: float = 1.0) -> "MassTarget":
        return MassTarget(TargetKind.EXPLICIT,
                          explicit=tuple(float(t) for t in targets),
                          tolerance=tolerance)


@dataclass(frozen=True)
class BlockSpec:
    """One consecutive range of scale indices.

    The block horizon is n_{k_hi} = 2^horizon_log2.  Callers carry the
    exponent alone: theorem1's second horizon, 2^37605530, would be a
    4.7 MB integer.  The parity follows the position ``index``.
    """

    index: int
    k_lo: int
    k_hi: int
    mass: float
    target: float
    complete: bool

    def __post_init__(self):
        if self.k_lo < 1 or self.k_hi < self.k_lo:
            raise ParamsError("block index range is empty or inverted",
                              k_lo=self.k_lo, k_hi=self.k_hi)

    @property
    def parity(self) -> BlockParity:
        return parity_of(self.index)

    @property
    def horizon_log2(self) -> int:
        return self.k_hi


def build_blocks(weights: WeightSchedule, mass_target: MassTarget):
    """Greedy consecutive assignment of scale indices to blocks.

    Indices accumulate into block l until the mass first reaches
    target_l - tolerance.  If the indices run out first, the final block
    is flagged incomplete; if even the first block cannot complete, the
    construction fails, reporting the mass it did achieve.
    """
    blocks: list[BlockSpec] = []
    k = 1
    l = 1
    while k <= weights.kmax:
        target = mass_target.target(l)
        threshold = max(target - mass_target.tolerance, 0.0)
        k_hi = weights.first_k_reaching(k, threshold)
        if k_hi is None:
            mass = weights.mass(k, weights.kmax)
            if not blocks:
                raise ParamsError(
                    "index budget too small for even one block",
                    achieved_mass=mass, target=target)
            blocks.append(BlockSpec(l, k, weights.kmax, mass, target,
                                    complete=False))
            break
        mass = weights.mass(k, k_hi)
        blocks.append(BlockSpec(l, k, k_hi, mass, target, complete=True))
        k = k_hi + 1
        l += 1
    return tuple(blocks)


def split_blocks(weights: WeightSchedule, boundaries):
    """Blocks from explicit upper endpoints, e.g. [11, 31] for kmax = 31.

    The last boundary must equal kmax so the blocks partition the full
    index range.  Every block is complete by construction and its achieved
    mass doubles as its target.
    """
    bounds = [int(b) for b in boundaries]
    if not bounds or bounds[-1] != weights.kmax:
        raise ParamsError("boundaries must end at kmax",
                          boundaries=bounds, kmax=weights.kmax)
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ParamsError("boundaries must be strictly increasing")
    blocks = []
    k = 1
    for l, k_hi in enumerate(bounds, start=1):
        mass = weights.mass(k, k_hi)
        blocks.append(BlockSpec(l, k, k_hi, mass, mass, complete=True))
        k = k_hi + 1
    return tuple(blocks)


@dataclass(eq=False)
class SequenceParams:
    """A weight schedule together with its block partition."""

    weights: WeightSchedule
    blocks: tuple[BlockSpec, ...]
    mass_target: MassTarget | None = None

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        if not self.blocks:
            raise ParamsError("at least one block is required")
        k = 1
        for l, b in enumerate(self.blocks, start=1):
            if b.index != l:
                raise ParamsError("block indices must be 1, 2, ...",
                                  found=b.index, expected=l)
            if b.k_lo != k:
                raise ParamsError("blocks must partition the index range",
                                  block=l, k_lo=b.k_lo, expected=k)
            k = b.k_hi + 1
        if k != self.weights.kmax + 1:
            raise ParamsError("blocks must cover 1..kmax exactly",
                              covered=k - 1, kmax=self.weights.kmax)

    @property
    def kmax(self) -> int:
        return self.weights.kmax

    def complete_blocks(self) -> tuple[BlockSpec, ...]:
        return tuple(b for b in self.blocks if b.complete)


def default_params(kmax: int = 20, rho: float = 4.0,
                   mode: WeightMode = WeightMode.CONST_ONE,
                   c=None, tolerance: float = 1.0) -> SequenceParams:
    """Greedy construction with geometric targets, the everyday preset."""
    w = build_weights(mode, kmax, c=c)
    target = MassTarget.geometric(rho, tolerance)
    return SequenceParams(w, build_blocks(w, target), mass_target=target)
