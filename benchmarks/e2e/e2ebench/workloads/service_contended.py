"""``service_contended``: two sessions, one hot set, dispatcher, fsync on.

The executor and WAL code of ``oltp_durable`` used differently: every
commit is fsync'ed, both sessions read ``tasks`` (S lock) and then update
it (upgrade to X), so they wait for and deadlock against each other, each
call crosses a thread hand-off, and whole episodes are retried with
jittered backoff. Group commit, lock granularity, dispatcher or retry
changes show here and should leave ``oltp_durable`` unmoved.
"""

from __future__ import annotations

from repro.core import BridgeScopeConfig, SecurityPolicy
from repro.mcp import ToolCall, ToolResult
from repro.service import Dispatcher, RetryPolicy, SessionManager

from ..datagen import rng_for
from ..harness import Episode, Step, rowcount_is
from .taskdag import (
    AGENT,
    TaskDagWorkload,
    claim_task_sql,
    ready_tasks_sql,
    signal_sql,
)


class ServiceContended(TaskDagWorkload):
    name = "service_contended"
    #: nproc is 2 and a client blocks while its worker runs, so two clients
    #: plus two dispatcher workers keep at most two threads runnable
    clients = 2
    open_options = {"fsync_commits": True}

    def build(self) -> None:
        self.load()
        config = BridgeScopeConfig(policy=SecurityPolicy.no_ddl())
        self.manager = SessionManager(self.db, config)
        self.dispatcher = Dispatcher(self.manager, workers=2)
        sessions = [self.manager.create_session(AGENT) for _ in range(self.clients)]
        self.tokens = [session.token for session in sessions]
        self.bridges = [session.bridge for session in sessions]

    def close(self) -> None:
        if self.dispatcher is not None:
            self.dispatcher.close()
            self.manager.close()
            self.dispatcher = self.manager = None
        super().close()

    def send(self, client: int, call: ToolCall) -> ToolResult:
        return self.dispatcher.call(self.tokens[client], call)

    def retry_policy(self, client: int) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=16,
            base_delay_s=0.001,
            max_delay_s=0.02,
            seed=self.seed * self.clients + client,
        )

    def script(self, client: int) -> list[Episode]:
        """Read-then-write claims over the hot plans. Every write is an
        increment or sets a constant, so the committed state does not depend
        on how the two sessions interleave."""
        rng = rng_for(self.name, self.seed, f"script-{client}")
        per_plan = self.sizes["tasks_per_plan"]
        episodes = []
        for n in range(self.sizes["cap"]):
            plan = rng.randrange(self.sizes["hot_plans"])
            task = plan * per_plan + rng.randrange(per_plan)
            signal = client * 10_000_000 + n
            episodes.append(Episode("claim", [
                Step("begin"),
                Step("select", {"sql": ready_tasks_sql(plan)}),
                Step("update", {"sql": claim_task_sql(task)}, check=rowcount_is(1)),
                Step("update", {"sql": (
                    f"UPDATE plans SET claimed = claimed + 1 WHERE plan_id = {plan}"
                )}, check=rowcount_is(1)),
                Step("insert", {"sql": signal_sql(
                    signal, task, "claim", f"claimed by session {client}"
                )}),
                Step("commit"),
            ], ("claim", task, plan)))
        return episodes
