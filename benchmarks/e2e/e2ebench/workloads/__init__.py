"""The four workloads, by the names later issues cite."""

from .analytic_proxy import AnalyticProxy
from .context_retrieval import ContextRetrieval
from .oltp_durable import OltpDurable
from .service_contended import ServiceContended

WORKLOADS = {
    workload.name: workload
    for workload in (OltpDurable, ServiceContended, ContextRetrieval, AnalyticProxy)
}
