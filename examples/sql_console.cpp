// A tiny SQL session against the embedded engine — the "JDBC" view of the
// database substrate ShadowDB replicates. Demonstrates the mini-SQL front
// end, transactions, aggregates and the engine's snapshot/restore used by
// state transfer. Runs a scripted session (no stdin needed) and prints each
// statement with its result.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "db/engine.hpp"
#include "db/sql.hpp"

using namespace shadow;

namespace {

class SqlSession {
 public:
  explicit SqlSession(db::Engine& engine) : engine_(engine) {}

  void exec(const std::string& sql) {
    std::printf("sql> %s\n", sql.c_str());
    db::Statement stmt;
    try {
      stmt = db::parse_sql(sql, [this](const std::string& name) -> const db::TableSchema* {
        auto it = schemas_.find(name);
        return it == schemas_.end() ? nullptr : &it->second;
      });
    } catch (const PreconditionViolation& ex) {
      std::printf("  error: %s\n", ex.what());
      return;
    }
    if (stmt.kind == db::Statement::Kind::kCreateTable) {
      schemas_[stmt.schema.name] = stmt.schema;
      engine_.create_table(stmt.schema);
      std::printf("  ok, table '%s' created\n", stmt.schema.name.c_str());
      return;
    }
    const db::TxnId txn = engine_.begin();
    const db::ExecResult result = engine_.execute(txn, stmt);
    engine_.commit(txn);
    if (!result.ok()) {
      std::printf("  aborted: %s\n", result.error.c_str());
      return;
    }
    if (!result.agg_value.is_null()) {
      std::printf("  = %s\n", result.agg_value.to_string().c_str());
    } else if (!result.rows.empty()) {
      for (const db::Row& row : result.rows) {
        std::printf("  | ");
        for (const db::Value& v : row) std::printf("%s ", v.to_string().c_str());
        std::printf("\n");
      }
      std::printf("  (%zu rows)\n", result.rows.size());
    } else {
      std::printf("  ok, %zu rows affected (%llu us of engine CPU)\n", result.affected,
                  static_cast<unsigned long long>(result.cost_us));
    }
  }

 private:
  db::Engine& engine_;
  std::map<std::string, db::TableSchema> schemas_;
};

}  // namespace

int main() {
  db::Engine engine(db::make_h2_traits());
  SqlSession session(engine);

  session.exec("CREATE TABLE accounts (id BIGINT, owner VARCHAR(32), balance BIGINT, "
               "PRIMARY KEY (id))");
  session.exec("INSERT INTO accounts VALUES (1, 'alice', 120)");
  session.exec("INSERT INTO accounts VALUES (2, 'bob', 80)");
  session.exec("INSERT INTO accounts VALUES (3, 'carol', 500)");
  session.exec("SELECT * FROM accounts WHERE id = 2");
  session.exec("UPDATE accounts SET balance = balance + 20 WHERE id = 2");
  session.exec("SELECT owner, balance FROM accounts WHERE balance >= 100 "
               "ORDER BY balance DESC");
  session.exec("SELECT SUM(balance) FROM accounts");
  session.exec("SELECT COUNT(*) FROM accounts WHERE balance < 200");
  session.exec("DELETE FROM accounts WHERE id = 1");
  session.exec("SELECT COUNT(*) FROM accounts");
  session.exec("INSERT INTO accounts VALUES (2, 'dupe', 0)");  // duplicate key
  session.exec("SELECT * FROM nosuch WHERE id = 1");           // diagnosed

  // Snapshot/restore — the state-transfer path of ShadowDB's recovery.
  db::Engine replica(db::make_derby_traits());
  replica.reset_for_restore(engine.schemas());
  std::size_t rows = 0;
  std::size_t bytes = 0;
  std::size_t batches = 0;
  engine.serialize_rows(50 * 1024, {}, [&](db::Engine::SnapshotBatch&& batch) {
    rows += batch.rows;
    bytes += batch.data.size();
    ++batches;
    replica.restore_batch(batch);
  });
  std::printf("\nsnapshot: %zu rows / %zu bytes shipped in %zu batches\n", rows, bytes, batches);
  std::printf("restored into a %s replica; digests %s\n",
              replica.traits().name.c_str(),
              replica.state_digest() == engine.state_digest() ? "match" : "DIFFER");
  return replica.state_digest() == engine.state_digest() ? 0 : 1;
}
