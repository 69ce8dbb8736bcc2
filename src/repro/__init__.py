"""Reproduction of BridgeScope (CIDR 2026): a universal toolkit bridging
LLMs and databases.

Subpackages:

* :mod:`repro.minidb` — from-scratch relational engine (PostgreSQL stand-in)
* :mod:`repro.mcp` — MCP-style tool protocol layer
* :mod:`repro.core` — the BridgeScope toolkit (context retrieval, modular
  SQL execution, transactions, proxy data routing)
* :mod:`repro.baselines` — PG-MCP baseline family
* :mod:`repro.llm` — simulated LLM substrate (tokenizer, profiles, policy)
* :mod:`repro.agent` — ReAct agent loop
* :mod:`repro.mltools` — analytical/ML tools for data-intensive workflows
* :mod:`repro.retrieval` — indexed column-value catalogs behind ``get_value``
* :mod:`repro.service` — sessions, dispatcher, lock manager, retry policy
* :mod:`repro.obs` — tracing, metrics and the ``system.*`` views
* :mod:`repro.faults` — the filesystem seam and scripted fault injection
* :mod:`repro.staticcheck` — machine-checked source invariants
* :mod:`repro.bench` — the paper's experiments (BIRD-Ext and NL2ML: figures
  5–6, tables 1–2, ablations), seeded and gated
"""

__version__ = "1.0.0"

from .core import BridgeScope, BridgeScopeConfig, SecurityPolicy  # noqa: F401
from .minidb import Database  # noqa: F401

__all__ = ["BridgeScope", "BridgeScopeConfig", "Database", "SecurityPolicy", "__version__"]
