"""The bundled rule pack. Importing this package registers every rule
with the engine's registry (each module's ``@register_rule`` decorator
runs at import time), so ``repro.analysis.rule_ids()`` is complete as
soon as ``repro.analysis`` is imported.

Rule ids are stable API: reports, suppression comments and CI artifacts
reference them. Add new rules with fresh ids; never renumber.
"""

from repro.analysis.rules.columnar_hygiene import ColumnarHygieneRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.exception_hygiene import ExceptionHygieneRule
from repro.analysis.rules.facade import FacadeSignatureRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.policy_contract import PolicyContractRule
from repro.analysis.rules.spec_strings import SpecStringRule

__all__ = [
    "ColumnarHygieneRule",
    "DeterminismRule",
    "ExceptionHygieneRule",
    "FacadeSignatureRule",
    "LockDisciplineRule",
    "PolicyContractRule",
    "SpecStringRule",
]
