"""Notebook sessions.

NotebookOS reuses the IPython/Jupyter messaging protocol so that any Jupyter
client works unmodified (§4).  The simulation does not model that wire
protocol: the Jupyter Server and Gateway hops of Figure 3 appear only as the
per-hop latencies :meth:`repro.policies.base.SchedulingPolicy.request_ingress`
adds.  What remains here is the session state the platform keeps per
notebook:

* :mod:`repro.jupyter.session` — a persistent notebook session with its cells
  and execution history.
"""

from repro.jupyter.session import CellExecution, NotebookCell, NotebookSession, SessionState

__all__ = [
    "CellExecution",
    "NotebookCell",
    "NotebookSession",
    "SessionState",
]
