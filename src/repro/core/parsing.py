"""Shared argument/spec parsing for every entry point.

Historically each CLI subcommand, example script, and sweep axis carried
its own copy of the comma-list and deck-spec parsing; this module is the
single home.  A *deck spec* is one of:

* a named deck size (``"small"``, ``"medium"``, ``"large"``);
* explicit structured extents, ``"NXxNY"`` (e.g. ``"16x8"``);
* a synthetic weak-scaled mesh, ``"weak:<cells_per_rank>"`` — no real
  deck is built; the sparse O(P log P) model prices an idealized 2-D
  weak-scaling census at the request's rank count instead.
"""

from __future__ import annotations

from repro.mesh.deck import DECK_SIZES, InputDeck, build_deck

__all__ = [
    "csv_strings",
    "csv_ints",
    "as_deck_size",
    "parse_deck",
    "deck_label",
    "is_weak_deck",
    "weak_cells_per_rank",
]

#: Prefix of synthetic weak-scaled deck specs.
WEAK_PREFIX = "weak:"


def csv_strings(text: str) -> tuple:
    """``"a, b,c"`` → ``("a", "b", "c")`` (empty items dropped)."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def csv_ints(text: str) -> tuple:
    """``"1,2, 4"`` → ``(1, 2, 4)``."""
    return tuple(int(s) for s in csv_strings(text))


def is_weak_deck(spec: str) -> bool:
    """Whether ``spec`` names a synthetic weak-scaled mesh."""
    return isinstance(spec, str) and spec.startswith(WEAK_PREFIX)


def weak_cells_per_rank(spec: str) -> float:
    """The per-rank workload of a ``weak:<cells_per_rank>`` spec."""
    if not is_weak_deck(spec):
        raise ValueError(f"not a weak-scaled deck spec: {spec!r}")
    cells = float(spec[len(WEAK_PREFIX):])
    if cells <= 0:
        raise ValueError("weak-scaled cells/rank must be positive")
    return cells


def as_deck_size(spec) -> str | tuple:
    """Normalise a deck spec to :func:`repro.mesh.build_deck`'s argument."""
    if isinstance(spec, str):
        if is_weak_deck(spec):
            raise ValueError(
                f"{spec!r} is a synthetic weak-scaled spec; no deck to build"
            )
        if spec in DECK_SIZES:
            return spec
        if "x" in spec:
            nx, ny = spec.split("x")
            return (int(nx), int(ny))
        raise ValueError(
            f"unknown deck {spec!r}; options: {sorted(DECK_SIZES)} or NXxNY"
        )
    nx, ny = spec
    return (int(nx), int(ny))


def parse_deck(spec) -> InputDeck:
    """Build the deck a spec names (named sizes or ``NXxNY`` extents)."""
    return build_deck(as_deck_size(spec))


def deck_label(deck: InputDeck) -> str:
    """Grid label: named decks by name, custom decks by their dimensions."""
    if deck.name in DECK_SIZES:
        return deck.name
    return f"{deck.mesh.nx}x{deck.mesh.ny}"
