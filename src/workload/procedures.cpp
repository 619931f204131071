#include "workload/procedures.hpp"

namespace shadow::workload {

TxnOutcome run_procedure(db::Engine& engine, const ProcedureFn& proc, const Params& params) {
  TxnOutcome outcome;
  const db::TxnId txn = engine.begin();
  outcome.cost_us += engine.traits().costs.begin_us;
  std::vector<db::ExecResult> results;

  for (std::size_t step = 0;; ++step) {
    const ProcStep next = proc(StepContext{params, step, results});
    if (next.kind == ProcStep::Kind::kCommit) {
      const db::ExecResult commit = engine.commit(txn);
      outcome.cost_us += commit.cost_us;
      outcome.committed = commit.status == db::ExecResult::Status::kOk;
      if (!outcome.committed) outcome.error = commit.error;
      break;
    }
    if (next.kind == ProcStep::Kind::kRollback) {
      const db::ExecResult abort = engine.abort(txn);
      outcome.cost_us += abort.cost_us;
      outcome.committed = false;
      outcome.error = "rolled back by transaction logic";
      break;
    }
    db::ExecResult result = engine.execute(txn, next.stmt);
    outcome.cost_us += result.cost_us;
    ++outcome.statements;
    SHADOW_CHECK_MSG(result.status != db::ExecResult::Status::kBlocked,
                     "sequential execution must never block");
    if (result.status == db::ExecResult::Status::kAborted) {
      outcome.committed = false;
      outcome.error = result.error;
      // The engine already rolled back and released this transaction.
      if (engine.is_active(txn)) engine.abort(txn);
      break;
    }
    results.push_back(std::move(result));
  }
  // The outcome carries the last non-empty result set and the last aggregate.
  for (auto it = results.rbegin(); it != results.rend(); ++it) {
    if (!it->rows.empty()) {
      outcome.rows = std::move(it->rows);
      break;
    }
  }
  for (auto it = results.rbegin(); it != results.rend(); ++it) {
    if (!it->agg_value.is_null()) {
      outcome.agg_value = std::move(it->agg_value);
      break;
    }
  }
  return outcome;
}

}  // namespace shadow::workload
