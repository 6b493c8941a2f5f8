"""Dragonfly configuration parameters (Table 1 of the paper).

A Dragonfly is fully described by three integers:

* ``p`` — compute nodes per router,
* ``a`` — routers per group,
* ``h`` — global links per router.

Everything else is derived: router radix ``k = p + (a - 1) + h``, number of
groups ``g = a * h + 1`` (all-to-all inter-group wiring with exactly one global
link between every pair of groups), ``m = g * a`` routers and ``N = m * p``
compute nodes.

A *balanced* Dragonfly follows ``a = 2p = 2h`` so that local and global link
bandwidth match the injection bandwidth (Kim et al., ISCA'08); the paper's two
systems (1,056 and 2,550 nodes) are both balanced and are provided as presets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenarios.serialize import Number, _check_fields, check_keys


@dataclass(frozen=True)
class DragonflyConfig:
    """Immutable Dragonfly size description.

    Attributes
    ----------
    p:
        Compute nodes attached to each router (host ports).
    a:
        Routers per group.
    h:
        Global links per router.
    """

    p: int
    a: int
    h: int

    _NUMBERS = {"p": Number(int, 1), "a": Number(int, 2), "h": Number(int, 1)}  # a >= 2 routers

    def __post_init__(self) -> None:
        _check_fields(self)

    # ------------------------------------------------------------ derived sizes
    @property
    def radix(self) -> int:
        """Router radix ``k = p + (a - 1) + h``."""
        return self.p + (self.a - 1) + self.h

    @property
    def k(self) -> int:
        """Alias of :attr:`radix` matching the paper's nomenclature."""
        return self.radix

    @property
    def num_groups(self) -> int:
        """``g = a * h + 1`` groups (one global link between every group pair)."""
        return self.a * self.h + 1

    @property
    def g(self) -> int:
        """Alias of :attr:`num_groups`."""
        return self.num_groups

    @property
    def num_routers(self) -> int:
        """``m = g * a`` routers in the whole system."""
        return self.num_groups * self.a

    @property
    def m(self) -> int:
        """Alias of :attr:`num_routers`."""
        return self.num_routers

    @property
    def num_nodes(self) -> int:
        """``N = m * p`` compute nodes in the whole system."""
        return self.num_routers * self.p

    @property
    def n(self) -> int:
        """Alias of :attr:`num_nodes`."""
        return self.num_nodes

    # --------------------------------------------------------------- properties
    @property
    def is_balanced(self) -> bool:
        """True when ``a == 2p == 2h`` (the load-balanced configuration)."""
        return self.a == 2 * self.p and self.a == 2 * self.h

    @property
    def global_links_per_group(self) -> int:
        """Each group terminates ``a * h`` global link endpoints."""
        return self.a * self.h

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> dict:
        """JSON-ready form: just the three defining integers."""
        return {"p": self.p, "a": self.a, "h": self.h}

    @classmethod
    def from_dict(cls, data: dict) -> "DragonflyConfig":
        """Strict inverse of :meth:`to_dict` (unknown/missing keys are errors)."""
        check_keys(data, required=("p", "a", "h"), context="DragonflyConfig")
        return cls(**data)

    def describe(self) -> dict:
        """Return the Table 1 row for this configuration as a dictionary."""
        return {
            "N": self.num_nodes,
            "p": self.p,
            "a": self.a,
            "h": self.h,
            "k": self.radix,
            "g": self.num_groups,
            "m": self.num_routers,
            "balanced": self.is_balanced,
        }

    # ------------------------------------------------------------------ presets
    @classmethod
    def paper_1056(cls) -> "DragonflyConfig":
        """The 1,056-node system of Table 1 (p=4, a=8, h=4 → 264 routers)."""
        return cls(p=4, a=8, h=4)

    @classmethod
    def paper_2550(cls) -> "DragonflyConfig":
        """The 2,550-node system of Table 1 (p=5, a=10, h=5 → 510 routers)."""
        return cls(p=5, a=10, h=5)

    @classmethod
    def balanced(cls, h: int) -> "DragonflyConfig":
        """A balanced Dragonfly built from its global-link count ``h`` (p=h, a=2h)."""
        return cls(p=h, a=2 * h, h=h)

    @classmethod
    def tiny(cls) -> "DragonflyConfig":
        """Smallest balanced system (p=1, a=2, h=1): 3 groups, 6 routers, 6 nodes."""
        return cls(p=1, a=2, h=1)

    @classmethod
    def small_72(cls) -> "DragonflyConfig":
        """A 72-node balanced system (p=2, a=4, h=2): 9 groups, 36 routers.

        This is the default scale for tests and reduced-scale experiments.
        """
        return cls(p=2, a=4, h=2)

    @classmethod
    def medium_342(cls) -> "DragonflyConfig":
        """A 342-node balanced system (p=3, a=6, h=3): 19 groups, 114 routers."""
        return cls(p=3, a=6, h=3)
