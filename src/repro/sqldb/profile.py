"""Execution profiles: the PostgreSQL-like and Umbra-like engine modes.

The paper's performance findings hinge on two strategy dimensions, both of
which are modelled structurally (no artificial delays):

* **CTE materialisation.**  PostgreSQL 12 materialises every CTE unless
  ``NOT MATERIALIZED`` is given — an optimisation barrier: the CTE is
  computed in full width (no column pruning through the boundary) exactly
  once per query.  Umbra treats CTEs like views and inlines them, so unused
  columns and whole unused CTEs are never computed.
* **Operator materialisation.**  The PostgreSQL profile copies every
  operator's output columns (tuple materialisation of a disk-based,
  buffer-backed executor); the Umbra profile pipelines vectors through
  without copies (compiled, fused execution).  In both, an operator's
  output holds exactly its pruned schema (PostgreSQL, too, projects a
  scan or join to its target list), so the copy covers live columns
  only; a materialised CTE's body keeps its full width.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Profile", "POSTGRES", "UMBRA", "profile_by_name"]


@dataclass(frozen=True)
class Profile:
    """Engine strategy knobs; see module docstring."""

    name: str
    #: default for CTEs without an explicit [NOT] MATERIALIZED clause
    materialize_ctes_by_default: bool
    #: copy operator outputs (simulates tuple materialisation)
    copy_operator_output: bool


POSTGRES = Profile("postgres", materialize_ctes_by_default=True, copy_operator_output=True)
UMBRA = Profile("umbra", materialize_ctes_by_default=False, copy_operator_output=False)

_BY_NAME = {p.name: p for p in (POSTGRES, UMBRA)}


def profile_by_name(name: str) -> Profile:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; available: {sorted(_BY_NAME)}"
        ) from None
