"""Model components, FPGA resource kinds, and per-component bitwidth assignments.

These types are shared by every stage of the workflow: the knowledge database
is keyed by (sequence length, component, resource, bitwidth), the estimator
sums entries over a :class:`BitwidthCombination`, and the quantizer quantizes
every junction and weight at its component's bitwidth in the same combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ResourceKind(Enum):
    """FPGA resource classes tracked by the knowledge database.

    DRAM here means LUT-based distributed RAM, not dynamic memory.
    Ordering is fixed and used for serialization.
    """

    LUTS = "luts"
    DRAM = "dram"
    BRAM = "bram"
    DSPS = "dsps"


RESOURCE_ORDER: tuple[ResourceKind, ...] = (
    ResourceKind.LUTS,
    ResourceKind.DRAM,
    ResourceKind.BRAM,
    ResourceKind.DSPS,
)


class ComponentId(Enum):
    """Profiled accelerator components in pipeline order.

    The first ten are the key components that receive a user bitwidth; the
    O_* entries are interconnect/buffering overhead blocks whose bitwidth
    column follows the key components' settings.
    """

    L_INPUT = "l_input"
    ADD_PE = "add_pe"
    MHA = "mha"
    ADD_MHA = "add_mha"
    BN_MHA = "bn_mha"
    FFN = "ffn"
    ADD_FFN = "add_ffn"
    BN_FFN = "bn_ffn"
    GAP = "gap"
    L_OUTPUT = "l_output"
    O_MODEL = "o_model"
    O_ENCODER_LAYER = "o_encoder_layer"
    O_MIDDLEWARE = "o_middleware"


KEY_COMPONENTS: tuple[ComponentId, ...] = (
    ComponentId.L_INPUT,
    ComponentId.ADD_PE,
    ComponentId.MHA,
    ComponentId.ADD_MHA,
    ComponentId.BN_MHA,
    ComponentId.FFN,
    ComponentId.ADD_FFN,
    ComponentId.BN_FFN,
    ComponentId.GAP,
    ComponentId.L_OUTPUT,
)

OVERHEAD_COMPONENTS: tuple[ComponentId, ...] = (
    ComponentId.O_MODEL,
    ComponentId.O_ENCODER_LAYER,
    ComponentId.O_MIDDLEWARE,
)

ALL_COMPONENTS: tuple[ComponentId, ...] = KEY_COMPONENTS + OVERHEAD_COMPONENTS

VALID_BITWIDTHS: tuple[int, ...] = (4, 6, 8)

NUM_KEY_COMPONENTS = len(KEY_COMPONENTS)


@dataclass(frozen=True, order=True)
class BitwidthCombination:
    """One bitwidth in {4, 6, 8} per key component, in pipeline order."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != NUM_KEY_COMPONENTS:
            raise ValueError(
                f"combination needs {NUM_KEY_COMPONENTS} bitwidths, got {len(self.bits)}"
            )
        for b in self.bits:
            if b not in VALID_BITWIDTHS:
                raise ValueError(f"bitwidth {b} not in {VALID_BITWIDTHS}")

    @classmethod
    def uniform(cls, bitwidth: int) -> "BitwidthCombination":
        return cls(bits=(bitwidth,) * NUM_KEY_COMPONENTS)

    @classmethod
    def parse(cls, text: str) -> "BitwidthCombination":
        """Parse a comma-separated list such as ``6,8,6,8,6,6,8,8,8,8``."""
        try:
            bits = tuple(int(tok.strip()) for tok in text.split(","))
        except ValueError as e:
            raise ValueError(f"bad combination {text!r}: {e}") from e
        return cls(bits=bits)

    def __getitem__(self, component: ComponentId) -> int:
        return self.bits[KEY_COMPONENTS.index(component)]

    def __iter__(self):
        return iter(self.bits)

    @property
    def score(self) -> int:
        """Sum of the ten bitwidths, the search ranking key."""
        return sum(self.bits)

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.bits)
