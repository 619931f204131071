#include "workload/tpcc.hpp"

#include <algorithm>
#include <optional>

namespace shadow::workload::tpcc {

namespace {

using db::Agg;
using db::CmpOp;
using db::ColumnType;
using db::Condition;
using db::SetClause;
using db::SetOp;
using db::Statement;
using db::Value;

// Column indexes (see make_schemas for the layouts).
namespace item_col {
constexpr std::size_t id = 0, name = 1, price = 2, data = 3;
}
namespace wh_col {
constexpr std::size_t id = 0, name = 1, tax = 2, ytd = 3;
}
namespace dist_col {
constexpr std::size_t w = 0, id = 1, name = 2, tax = 3, ytd = 4, next_o_id = 5;
}
namespace cust_col {
constexpr std::size_t w = 0, d = 1, id = 2, first = 3, last = 4, credit = 5, balance = 6,
                      ytd_payment = 7, payment_cnt = 8, delivery_cnt = 9, data = 10;
}
namespace hist_col {
constexpr std::size_t id = 0, c_w = 1, c_d = 2, c_id = 3, w = 4, d = 5, amount = 6, data = 7;
}
namespace ord_col {
constexpr std::size_t w = 0, d = 1, id = 2, c_id = 3, carrier = 4, ol_cnt = 5, entry_d = 6;
}
namespace no_col {
constexpr std::size_t w = 0, d = 1, o = 2;
}
namespace ol_col {
constexpr std::size_t w = 0, d = 1, o = 2, number = 3, i_id = 4, supply_w = 5, quantity = 6,
                      amount = 7, delivery_d = 8;
}
namespace stock_col {
constexpr std::size_t w = 0, i = 1, quantity = 2, ytd = 3, order_cnt = 4, remote_cnt = 5,
                      data = 6;
}

constexpr std::int64_t kCLoad = 157;  // the loader's C constant for NURand

Condition eq(std::size_t col, Value v) { return Condition{col, CmpOp::kEq, std::move(v)}; }

}  // namespace

std::string last_name(std::int64_t num) {
  static const char* kSyllables[] = {"BAR", "OUGHT", "ABLE",  "PRI",   "PRES",
                                     "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  return std::string(kSyllables[(num / 100) % 10]) + kSyllables[(num / 10) % 10] +
         kSyllables[num % 10];
}

std::vector<db::TableSchema> make_schemas() {
  using T = ColumnType;
  std::vector<db::TableSchema> schemas;
  schemas.push_back({"item",
                     {{"i_id", T::kBigInt}, {"i_name", T::kVarchar}, {"i_price", T::kDouble},
                      {"i_data", T::kVarchar}},
                     {0}});
  schemas.push_back({"warehouse",
                     {{"w_id", T::kBigInt}, {"w_name", T::kVarchar}, {"w_tax", T::kDouble},
                      {"w_ytd", T::kDouble}},
                     {0}});
  schemas.push_back({"district",
                     {{"d_w_id", T::kBigInt}, {"d_id", T::kBigInt}, {"d_name", T::kVarchar},
                      {"d_tax", T::kDouble}, {"d_ytd", T::kDouble}, {"d_next_o_id", T::kBigInt}},
                     {0, 1}});
  schemas.push_back({"customer",
                     {{"c_w_id", T::kBigInt}, {"c_d_id", T::kBigInt}, {"c_id", T::kBigInt},
                      {"c_first", T::kVarchar}, {"c_last", T::kVarchar},
                      {"c_credit", T::kVarchar}, {"c_balance", T::kDouble},
                      {"c_ytd_payment", T::kDouble}, {"c_payment_cnt", T::kBigInt},
                      {"c_delivery_cnt", T::kBigInt}, {"c_data", T::kVarchar}},
                     {0, 1, 2}});
  schemas.push_back({"history",
                     {{"h_id", T::kBigInt}, {"h_c_w_id", T::kBigInt}, {"h_c_d_id", T::kBigInt},
                      {"h_c_id", T::kBigInt}, {"h_w_id", T::kBigInt}, {"h_d_id", T::kBigInt},
                      {"h_amount", T::kDouble}, {"h_data", T::kVarchar}},
                     {0}});
  schemas.push_back({"orders",
                     {{"o_w_id", T::kBigInt}, {"o_d_id", T::kBigInt}, {"o_id", T::kBigInt},
                      {"o_c_id", T::kBigInt}, {"o_carrier_id", T::kBigInt},
                      {"o_ol_cnt", T::kBigInt}, {"o_entry_d", T::kBigInt}},
                     {0, 1, 2}});
  schemas.push_back({"new_order",
                     {{"no_w_id", T::kBigInt}, {"no_d_id", T::kBigInt}, {"no_o_id", T::kBigInt}},
                     {0, 1, 2}});
  schemas.push_back({"order_line",
                     {{"ol_w_id", T::kBigInt}, {"ol_d_id", T::kBigInt}, {"ol_o_id", T::kBigInt},
                      {"ol_number", T::kBigInt}, {"ol_i_id", T::kBigInt},
                      {"ol_supply_w_id", T::kBigInt}, {"ol_quantity", T::kBigInt},
                      {"ol_amount", T::kDouble}, {"ol_delivery_d", T::kBigInt}},
                     {0, 1, 2, 3}});
  schemas.push_back({"stock",
                     {{"s_w_id", T::kBigInt}, {"s_i_id", T::kBigInt}, {"s_quantity", T::kBigInt},
                      {"s_ytd", T::kBigInt}, {"s_order_cnt", T::kBigInt},
                      {"s_remote_cnt", T::kBigInt}, {"s_data", T::kVarchar}},
                     {0, 1}});
  return schemas;
}

namespace {

/// Inserts one table's rows as they are generated, in transactions of at
/// most kRows rows: the loader never holds a table's rows, nor more than
/// kRows undo entries.
class LoadBatch {
 public:
  static constexpr std::size_t kRows = 1000;

  LoadBatch(db::Engine& engine, const char* table) : engine_(engine), table_(table) {}

  void add(db::Row row) {
    if (rows_ == 0) txn_ = engine_.begin();
    SHADOW_CHECK(engine_.execute(txn_, db::make_insert(table_, std::move(row))).ok());
    if (++rows_ == kRows) finish();
  }

  /// Commits the rows added since the last commit.
  void finish() {
    if (rows_ == 0) return;
    SHADOW_CHECK(engine_.commit(txn_).ok());
    rows_ = 0;
  }

 private:
  db::Engine& engine_;
  const char* table_;
  db::TxnId txn_ = 0;
  std::size_t rows_ = 0;
};

}  // namespace

void load(db::Engine& engine, const TpccConfig& config, std::uint64_t seed) {
  for (db::TableSchema& schema : make_schemas()) engine.create_table(std::move(schema));
  Rng rng(seed);
  const std::string pad(config.data_pad, 'x');

  // -- items -------------------------------------------------------------------
  LoadBatch items(engine, "item");
  for (std::int64_t i = 1; i <= config.items; ++i) {
    items.add({Value(i), Value("item-" + std::to_string(i)),
               Value(1.0 + static_cast<double>(rng.uniform(0, 9900)) / 100.0), Value(pad)});
  }
  items.finish();

  const std::int64_t delivered_cutoff = config.initial_orders_per_district * 7 / 10;
  std::uint64_t h_id = 1;

  for (std::int64_t w = 1; w <= config.warehouses; ++w) {
    LoadBatch warehouse(engine, "warehouse");
    warehouse.add({Value(w), Value("wh-" + std::to_string(w)),
                   Value(static_cast<double>(rng.uniform(0, 2000)) / 10000.0), Value(300000.0)});
    warehouse.finish();
    // -- stock ------------------------------------------------------------------
    LoadBatch stock(engine, "stock");
    for (std::int64_t i = 1; i <= config.items; ++i) {
      stock.add({Value(w), Value(i), Value(static_cast<std::int64_t>(rng.uniform(10, 100))),
                 Value(0), Value(0), Value(0), Value(pad)});
    }
    stock.finish();

    for (std::int64_t d = 1; d <= config.districts_per_wh; ++d) {
      LoadBatch district(engine, "district");
      district.add({Value(w), Value(d), Value("dist-" + std::to_string(d)),
                    Value(static_cast<double>(rng.uniform(0, 2000)) / 10000.0), Value(30000.0),
                    Value(config.initial_orders_per_district + 1)});
      district.finish();

      // -- customers + history ---------------------------------------------------
      LoadBatch customers(engine, "customer");
      LoadBatch history(engine, "history");
      for (std::int64_t c = 1; c <= config.customers_per_district; ++c) {
        const std::int64_t name_num =
            c <= 1000 ? c - 1
                      : (((static_cast<std::int64_t>(rng.uniform(0, 255)) |
                           static_cast<std::int64_t>(rng.uniform(0, 999))) +
                          kCLoad) %
                         1000);
        const bool bad_credit = rng.uniform(1, 10) == 1;
        customers.add({Value(w), Value(d), Value(c), Value("first-" + std::to_string(c)),
                       Value(last_name(name_num)), Value(bad_credit ? "BC" : "GC"),
                       Value(-10.0), Value(10.0), Value(1), Value(0), Value(pad)});
        history.add({Value(static_cast<std::int64_t>(h_id++)), Value(w), Value(d), Value(c),
                     Value(w), Value(d), Value(10.0), Value(pad)});
      }
      customers.finish();
      history.finish();

      // -- orders / order lines / new orders -------------------------------------
      std::vector<std::int64_t> cust_perm(
          static_cast<std::size_t>(config.customers_per_district));
      for (std::size_t i = 0; i < cust_perm.size(); ++i) {
        cust_perm[i] = static_cast<std::int64_t>(i) + 1;
      }
      rng.shuffle(cust_perm);

      LoadBatch orders(engine, "orders");
      LoadBatch lines(engine, "order_line");
      LoadBatch new_orders(engine, "new_order");
      for (std::int64_t o = 1; o <= config.initial_orders_per_district; ++o) {
        const std::int64_t c =
            cust_perm[static_cast<std::size_t>((o - 1) % config.customers_per_district)];
        const auto ol_cnt = static_cast<std::int64_t>(rng.uniform(5, 15));
        const bool delivered = o <= delivered_cutoff;
        orders.add({Value(w), Value(d), Value(o), Value(c),
                    Value(delivered ? static_cast<std::int64_t>(rng.uniform(1, 10)) : 0),
                    Value(ol_cnt), Value(1)});
        for (std::int64_t n = 1; n <= ol_cnt; ++n) {
          const auto i_id = static_cast<std::int64_t>(
              rng.uniform(1, static_cast<std::uint64_t>(config.items)));
          lines.add({Value(w), Value(d), Value(o), Value(n), Value(i_id), Value(w), Value(5),
                     Value(delivered ? 0.0 : static_cast<double>(rng.uniform(1, 999999)) / 100.0),
                     Value(delivered ? std::int64_t{1} : std::int64_t{0})});
        }
        if (!delivered) new_orders.add({Value(w), Value(d), Value(o)});
      }
      orders.finish();
      lines.finish();
      new_orders.finish();
    }
  }
}

// ============================================================ procedures ====

namespace {

// ---- new_order ---------------------------------------------------------------
// params: [w, d, c, ol_cnt, entry_d, (i_id, supply_w, qty) * ol_cnt]
ProcStep new_order_step(const StepContext& ctx) {
  const Value& w = ctx.params[0];
  const Value& d = ctx.params[1];
  const Value& c = ctx.params[2];
  const std::int64_t ol_cnt = ctx.params[3].as_int();
  const Value& entry_d = ctx.params[4];
  const auto item_param = [&ctx](std::int64_t line, std::size_t field) -> const Value& {
    return ctx.params[5 + static_cast<std::size_t>(line) * 3 + field];
  };

  switch (ctx.step) {
    case 0: return ProcStep::statement(db::make_select("warehouse", {w}));
    case 1:
      // FOR UPDATE: the district row is updated next (deadlock avoidance).
      return ProcStep::statement(db::make_select_for_update("district", {w, d}));
    case 2:
      return ProcStep::statement(
          db::make_update("district", {w, d}, {{dist_col::next_o_id, SetOp::kAdd, Value(1)}}));
    case 3: return ProcStep::statement(db::make_select("customer", {w, d, c}));
    default: break;
  }

  SHADOW_CHECK(!ctx.results[1].rows.empty());
  const Value o_id = ctx.results[1].rows[0][dist_col::next_o_id];

  if (ctx.step == 4) {
    return ProcStep::statement(db::make_insert(
        "orders", {w, d, o_id, c, Value(0), Value(ol_cnt), entry_d}));
  }
  if (ctx.step == 5) {
    return ProcStep::statement(db::make_insert("new_order", {w, d, o_id}));
  }

  // Order lines: 4 statements per line — item read, stock read, stock
  // write, order-line insert.
  const std::int64_t line = static_cast<std::int64_t>(ctx.step - 6) / 4;
  const std::size_t phase = (ctx.step - 6) % 4;
  if (line >= ol_cnt) return ProcStep::commit();

  const std::size_t base = 6 + static_cast<std::size_t>(line) * 4;
  switch (phase) {
    case 0:
      return ProcStep::statement(db::make_select("item", {item_param(line, 0)}));
    case 1:
      // "An unused item number results in a rollback" — the 1 % case.
      if (ctx.results[base].rows.empty()) return ProcStep::rollback();
      return ProcStep::statement(
          db::make_select_for_update("stock", {item_param(line, 1), item_param(line, 0)}));
    case 2: {
      SHADOW_CHECK(!ctx.results[base + 1].rows.empty());
      const std::int64_t s_quantity =
          ctx.results[base + 1].rows[0][stock_col::quantity].as_int();
      const std::int64_t qty = item_param(line, 2).as_int();
      const std::int64_t new_q = s_quantity - qty >= 10 ? s_quantity - qty
                                                        : s_quantity - qty + 91;
      return ProcStep::statement(db::make_update(
          "stock", {item_param(line, 1), item_param(line, 0)},
          {{stock_col::quantity, SetOp::kAssign, Value(new_q)},
           {stock_col::ytd, SetOp::kAdd, Value(qty)},
           {stock_col::order_cnt, SetOp::kAdd, Value(1)}}));
    }
    default: {  // phase 3
      const double price = ctx.results[base].rows[0][item_col::price].as_double();
      const double w_tax = ctx.results[0].rows[0][wh_col::tax].as_double();
      const double d_tax = ctx.results[1].rows[0][dist_col::tax].as_double();
      const std::int64_t qty = item_param(line, 2).as_int();
      const double amount = static_cast<double>(qty) * price * (1.0 + w_tax + d_tax);
      return ProcStep::statement(db::make_insert(
          "order_line", {w, d, o_id, Value(line + 1), item_param(line, 0),
                         item_param(line, 1), Value(qty), Value(amount), Value(0)}));
    }
  }
}

// ---- payment -------------------------------------------------------------------
// params: [w, d, c_w, c_d, by_name, c_id, c_last_num, amount, h_id]
ProcStep payment_step(const StepContext& ctx) {
  const Value& w = ctx.params[0];
  const Value& d = ctx.params[1];
  const Value& c_w = ctx.params[2];
  const Value& c_d = ctx.params[3];
  const bool by_name = ctx.params[4].as_int() != 0;
  const Value& amount = ctx.params[7];

  switch (ctx.step) {
    case 0:
      return ProcStep::statement(db::make_select_for_update("warehouse", {w}));
    case 1:
      return ProcStep::statement(db::make_update(
          "warehouse", {w}, {{wh_col::ytd, SetOp::kAdd, amount}}));
    case 2:
      return ProcStep::statement(db::make_select_for_update("district", {w, d}));
    case 3:
      return ProcStep::statement(db::make_update(
          "district", {w, d}, {{dist_col::ytd, SetOp::kAdd, amount}}));
    case 4: {
      if (!by_name) {
        return ProcStep::statement(
            db::make_select_for_update("customer", {c_w, c_d, ctx.params[5]}));
      }
      db::Statement scan = db::make_scan(
          "customer", {eq(cust_col::w, c_w), eq(cust_col::d, c_d),
                       eq(cust_col::last, Value(last_name(ctx.params[6].as_int())))});
      scan.for_update = true;  // one of the matches is updated next
      return ProcStep::statement(std::move(scan));
    }
    case 5: {
      const auto& found = ctx.results[4].rows;
      if (found.empty()) return ProcStep::rollback();  // no such customer
      // By-name selection takes the row at ⌈n/2⌉ ordered by c_first.
      std::size_t pick = 0;
      if (by_name) {
        std::vector<std::size_t> order(found.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [&found](std::size_t a, std::size_t b) {
          return found[a][cust_col::first] < found[b][cust_col::first];
        });
        pick = order[(order.size()) / 2];
      }
      const db::Row& cust = found[pick];
      return ProcStep::statement(db::make_update(
          "customer", {cust[cust_col::w], cust[cust_col::d], cust[cust_col::id]},
          {{cust_col::balance, SetOp::kAdd, Value(-amount.as_double())},
           {cust_col::ytd_payment, SetOp::kAdd, amount},
           {cust_col::payment_cnt, SetOp::kAdd, Value(1)}}));
    }
    case 6:
      return ProcStep::statement(db::make_insert(
          "history", {ctx.params[8], c_w, c_d,
                      Value(by_name ? std::int64_t{0} : ctx.params[5].as_int()), w, d, amount,
                      Value("payment")}));
    default: return ProcStep::commit();
  }
}

// ---- order_status ----------------------------------------------------------------
// params: [w, d, by_name, c_id, c_last_num]
ProcStep order_status_step(const StepContext& ctx) {
  const Value& w = ctx.params[0];
  const Value& d = ctx.params[1];
  const bool by_name = ctx.params[2].as_int() != 0;

  switch (ctx.step) {
    case 0: {
      if (!by_name) {
        return ProcStep::statement(db::make_select("customer", {w, d, ctx.params[3]}));
      }
      return ProcStep::statement(db::make_scan(
          "customer", {eq(cust_col::w, w), eq(cust_col::d, d),
                       eq(cust_col::last, Value(last_name(ctx.params[4].as_int())))}));
    }
    case 1: {
      if (ctx.results[0].rows.empty()) return ProcStep::rollback();
      const db::Row& cust = ctx.results[0].rows[ctx.results[0].rows.size() / 2];
      Statement scan = db::make_scan(
          "orders", {eq(ord_col::w, w), eq(ord_col::d, d), eq(ord_col::c_id,
                                                              cust[cust_col::id])});
      scan.order_by = {ord_col::id, true};  // most recent order
      scan.limit = 1;
      return ProcStep::statement(std::move(scan));
    }
    case 2: {
      if (ctx.results[1].rows.empty()) return ProcStep::commit();
      const Value o_id = ctx.results[1].rows[0][ord_col::id];
      return ProcStep::statement(db::make_scan(
          "order_line", {eq(ol_col::w, w), eq(ol_col::d, d), eq(ol_col::o, o_id)}));
    }
    default: return ProcStep::commit();
  }
}

// ---- delivery -----------------------------------------------------------------
// params: [w, carrier, delivery_d, districts]
// Per district: min(new_order), then if found: select order, delete
// new_order, update order carrier, sum order lines, stamp order lines,
// credit the customer — 7 statements; skipped districts take 1.
ProcStep delivery_step(const StepContext& ctx) {
  const Value& w = ctx.params[0];
  const Value& carrier = ctx.params[1];
  const Value& delivery_d = ctx.params[2];
  const std::int64_t districts = ctx.params[3].as_int();

  // Replay the statement history to find our position.
  std::size_t idx = 0;
  for (std::int64_t d = 1; d <= districts; ++d) {
    const Value dv(d);
    // Statement 1: oldest undelivered order of the district.
    if (idx == ctx.step) {
      Statement scan = db::make_scan("new_order", {eq(no_col::w, w), eq(no_col::d, dv)});
      scan.agg = Agg::kMin;
      scan.agg_column = no_col::o;
      scan.for_update = true;  // the oldest new-order row is deleted next
      return ProcStep::statement(std::move(scan));
    }
    const db::ExecResult& min_result = ctx.results[idx];
    ++idx;
    if (min_result.agg_value.is_null()) continue;  // nothing to deliver here
    const Value o_id = min_result.agg_value;

    const std::size_t base = idx;
    if (ctx.step < base + 6) {
      switch (ctx.step - base) {
        case 0:
          return ProcStep::statement(db::make_select_for_update("orders", {w, dv, o_id}));
        case 1: return ProcStep::statement(db::make_delete("new_order", {w, dv, o_id}));
        case 2:
          return ProcStep::statement(db::make_update(
              "orders", {w, dv, o_id}, {{ord_col::carrier, SetOp::kAssign, carrier}}));
        case 3: {
          Statement scan = db::make_scan(
              "order_line", {eq(ol_col::w, w), eq(ol_col::d, dv), eq(ol_col::o, o_id)});
          scan.agg = Agg::kSum;
          scan.agg_column = ol_col::amount;
          return ProcStep::statement(std::move(scan));
        }
        case 4:
          return ProcStep::statement(db::make_update_where(
              "order_line",
              {eq(ol_col::w, w), eq(ol_col::d, dv), eq(ol_col::o, o_id)},
              {{ol_col::delivery_d, SetOp::kAssign, delivery_d}}));
        default: {  // 5: credit the customer
          const Value c_id = !ctx.results[base].rows.empty()
                                 ? ctx.results[base].rows[0][ord_col::c_id]
                                 : Value(0);
          const double sum = ctx.results[base + 3].agg_value.is_null()
                                 ? 0.0
                                 : ctx.results[base + 3].agg_value.as_double();
          return ProcStep::statement(db::make_update(
              "customer", {w, dv, c_id},
              {{cust_col::balance, SetOp::kAdd, Value(sum)},
               {cust_col::delivery_cnt, SetOp::kAdd, Value(1)}}));
        }
      }
    }
    idx += 6;
  }
  return ProcStep::commit();
}

// ---- stock_level -----------------------------------------------------------------
// params: [w, d, threshold]
ProcStep stock_level_step(const StepContext& ctx) {
  const Value& w = ctx.params[0];
  const Value& d = ctx.params[1];
  const std::int64_t threshold = ctx.params[2].as_int();

  if (ctx.step == 0) return ProcStep::statement(db::make_select("district", {w, d}));
  if (ctx.step == 1) {
    SHADOW_CHECK(!ctx.results[0].rows.empty());
    const std::int64_t next_o = ctx.results[0].rows[0][dist_col::next_o_id].as_int();
    Statement scan = db::make_scan(
        "order_line",
        {eq(ol_col::w, w), eq(ol_col::d, d),
         Condition{ol_col::o, CmpOp::kGe, Value(next_o - 20)},
         Condition{ol_col::o, CmpOp::kLt, Value(next_o)}});
    scan.select_columns = {ol_col::i_id};
    return ProcStep::statement(std::move(scan));
  }
  // One stock read per distinct item of the last 20 orders, in ascending item
  // order, then count below-threshold quantities (the count is computed
  // procedure-side). Each step reads the smallest item above the one the
  // previous step read, so no step rebuilds the distinct set.
  const std::vector<db::Row>& lines = ctx.results[1].rows;
  std::optional<std::int64_t> above;
  if (ctx.step > 2) {
    const std::vector<db::Row>& prev = ctx.results[ctx.step - 1].rows;
    SHADOW_CHECK(!prev.empty());  // every ordered item has a stock row
    above = prev[0][stock_col::i].as_int();
  }
  std::optional<std::int64_t> next;
  for (const db::Row& row : lines) {
    const std::int64_t item = row[0].as_int();
    if ((!above || item > *above) && (!next || item < *next)) next = item;
  }
  if (next) return ProcStep::statement(db::make_select("stock", {w, Value(*next)}));
  (void)threshold;  // the low-stock count is derived by the caller if needed
  return ProcStep::commit();
}

}  // namespace

void register_procedures(ProcedureRegistry& registry) {
  registry.add(kNewOrderProc, new_order_step);
  registry.add(kPaymentProc, payment_step);
  registry.add(kOrderStatusProc, order_status_step);
  registry.add(kDeliveryProc, delivery_step);
  registry.add(kStockLevelProc, stock_level_step);
}

// ============================================================ generator ====

TxnGenerator::TxnGenerator(TpccConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed), stream_id_(seed & 0xffffff) {
  c_for_c_id_ = static_cast<std::int64_t>(rng_.uniform(0, 1023));
  c_for_i_id_ = static_cast<std::int64_t>(rng_.uniform(0, 8191));
}

std::int64_t TxnGenerator::nurand(std::int64_t a, std::int64_t x, std::int64_t y) {
  const std::int64_t c = a == 255 ? c_for_c_id_ : c_for_i_id_;
  const auto r1 = static_cast<std::int64_t>(rng_.uniform(0, static_cast<std::uint64_t>(a)));
  const auto r2 = static_cast<std::int64_t>(
      rng_.uniform(static_cast<std::uint64_t>(x), static_cast<std::uint64_t>(y)));
  return (((r1 | r2) + c) % (y - x + 1)) + x;
}

TxnGenerator::Txn TxnGenerator::next() {
  const std::uint64_t roll = rng_.uniform(1, 100);
  if (roll <= 45) return next_new_order();
  if (roll <= 88) return next_payment();
  if (roll <= 92) return next_order_status();
  if (roll <= 96) return next_delivery();
  return next_stock_level();
}

TxnGenerator::Txn TxnGenerator::next_new_order() {
  const auto w = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.warehouses)));
  const auto d = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.districts_per_wh)));
  const std::int64_t c = nurand(1023, 1, config_.customers_per_district);
  const auto ol_cnt = static_cast<std::int64_t>(rng_.uniform(5, 15));
  const bool rollback = rng_.uniform(1, 100) == 1;  // 1 % invalid item

  Params params{Value(w), Value(d), Value(c), Value(ol_cnt), Value(2)};
  std::vector<std::int64_t> item_ids;
  for (std::int64_t i = 0; i < ol_cnt; ++i) {
    std::int64_t item = nurand(8191, 1, config_.items);
    if (rollback && i == ol_cnt - 1) item = config_.items + 1;  // unused item
    item_ids.push_back(item);
  }
  // Stock rows are locked in item order: sorting the lines is the standard
  // TPC-C deadlock-avoidance technique (the invalid item sorts last anyway).
  std::sort(item_ids.begin(), item_ids.end());
  item_ids.erase(std::unique(item_ids.begin(), item_ids.end()), item_ids.end());
  params[3] = Value(static_cast<std::int64_t>(item_ids.size()));
  for (std::int64_t item : item_ids) {
    params.push_back(Value(item));
    params.push_back(Value(w));  // 1-warehouse config: all supplies local
    params.push_back(Value(static_cast<std::int64_t>(rng_.uniform(1, 10))));
  }
  return {kNewOrderProc, std::move(params)};
}

TxnGenerator::Txn TxnGenerator::next_payment() {
  const auto w = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.warehouses)));
  const auto d = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.districts_per_wh)));
  const bool by_name = rng_.uniform(1, 100) <= 60;
  const std::int64_t c_id = nurand(1023, 1, config_.customers_per_district);
  const std::int64_t name_max = std::min<std::int64_t>(999, config_.customers_per_district - 1);
  const std::int64_t c_last = nurand(255, 0, name_max);
  const double amount = static_cast<double>(rng_.uniform(100, 500000)) / 100.0;
  // History rows need globally unique ids: combine the generator's stream
  // id (unique per client) with a local counter.
  const std::int64_t h_id =
      (static_cast<std::int64_t>(stream_id_) << 32) |
      static_cast<std::int64_t>(h_id_next_++ << 8);
  return {kPaymentProc,
          {Value(w), Value(d), Value(w), Value(d), Value(by_name ? 1 : 0), Value(c_id),
           Value(c_last), Value(amount), Value(h_id)}};
}

TxnGenerator::Txn TxnGenerator::next_order_status() {
  const auto w = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.warehouses)));
  const auto d = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.districts_per_wh)));
  const bool by_name = rng_.uniform(1, 100) <= 60;
  const std::int64_t c_id = nurand(1023, 1, config_.customers_per_district);
  const std::int64_t name_max = std::min<std::int64_t>(999, config_.customers_per_district - 1);
  return {kOrderStatusProc,
          {Value(w), Value(d), Value(by_name ? 1 : 0), Value(c_id),
           Value(nurand(255, 0, name_max))}};
}

TxnGenerator::Txn TxnGenerator::next_delivery() {
  const auto w = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.warehouses)));
  return {kDeliveryProc,
          {Value(w), Value(static_cast<std::int64_t>(rng_.uniform(1, 10))), Value(3),
           Value(config_.districts_per_wh)}};
}

TxnGenerator::Txn TxnGenerator::next_stock_level() {
  const auto w = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.warehouses)));
  const auto d = static_cast<std::int64_t>(
      rng_.uniform(1, static_cast<std::uint64_t>(config_.districts_per_wh)));
  return {kStockLevelProc,
          {Value(w), Value(d), Value(static_cast<std::int64_t>(rng_.uniform(10, 20)))}};
}

// ========================================================= consistency ====

bool check_consistency(db::Engine& engine, const TpccConfig& config, std::string* detail) {
  const db::TxnId txn = engine.begin();
  bool ok = true;
  std::string why;
  for (std::int64_t w = 1; w <= config.warehouses && ok; ++w) {
    for (std::int64_t d = 1; d <= config.districts_per_wh && ok; ++d) {
      const db::ExecResult dist =
          engine.execute(txn, db::make_select("district", {Value(w), Value(d)}));
      SHADOW_CHECK(dist.ok() && !dist.rows.empty());
      const std::int64_t next_o = dist.rows[0][dist_col::next_o_id].as_int();

      db::Statement max_o =
          db::make_scan("orders", {eq(ord_col::w, Value(w)), eq(ord_col::d, Value(d))});
      max_o.agg = Agg::kMax;
      max_o.agg_column = ord_col::id;
      const db::ExecResult omax = engine.execute(txn, max_o);

      db::Statement max_no =
          db::make_scan("new_order", {eq(no_col::w, Value(w)), eq(no_col::d, Value(d))});
      max_no.agg = Agg::kMax;
      max_no.agg_column = no_col::o;
      const db::ExecResult nmax = engine.execute(txn, max_no);

      // Condition 1: d_next_o_id - 1 == max(o_id); the newest new_order (if
      // any) is also bounded by it.
      if (!omax.agg_value.is_null() && omax.agg_value.as_int() != next_o - 1) {
        ok = false;
        why = "district (" + std::to_string(w) + "," + std::to_string(d) +
              "): max(o_id)=" + omax.agg_value.to_string() +
              " != d_next_o_id-1=" + std::to_string(next_o - 1);
      }
      if (ok && !nmax.agg_value.is_null() && nmax.agg_value.as_int() > next_o - 1) {
        ok = false;
        why = "new_order beyond d_next_o_id in district " + std::to_string(d);
      }
    }
  }
  engine.commit(txn);
  if (!ok && detail != nullptr) *detail = why;
  return ok;
}

}  // namespace shadow::workload::tpcc
