"""The pydocstyle-lite gate must hold for the public API.

Runs the ``tools.lint`` docstring gate (the one CI invokes through
``python -m tools.lint --all``) against the in-repo sources, so a missing
module/function docstring on the public surface — or an undocumented
topology-zoo parameter — fails tier-1, not just the CI lint job.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.lint.docstrings import docstring_gate  # noqa: E402


def test_public_api_docstrings_clean():
    result = docstring_gate()
    assert result.ok, "docstring gate failed:\n" + "\n".join(
        finding.render() for finding in result.findings
    )
