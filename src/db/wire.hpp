// Wire codecs for database types that travel inside messages: values, rows,
// table schemas, snapshot chunks, and structured statements (shipped by the
// statement-replication baselines). Value delegates to its own serialize /
// deserialize so the codec format stays identical to the snapshot format.
#pragma once

#include "db/engine.hpp"
#include "db/schema.hpp"
#include "db/statement.hpp"
#include "db/value.hpp"
#include "wire/codec.hpp"

namespace shadow::wire {

template <>
struct Codec<db::Value> {
  static void encode(BytesWriter& w, const db::Value& v) { v.serialize(w); }
  static db::Value decode(BytesReader& r) { return db::Value::deserialize(r); }
};

template <>
struct Codec<db::ColumnDef> : Fields<&db::ColumnDef::name, &db::ColumnDef::type> {};

template <>
struct Codec<db::TableSchema>
    : Fields<&db::TableSchema::name, &db::TableSchema::columns, &db::TableSchema::primary_key> {};

template <>
struct Codec<db::Engine::SnapshotBatch>
    : Fields<&db::Engine::SnapshotBatch::table, &db::Engine::SnapshotBatch::data,
             &db::Engine::SnapshotBatch::rows> {};

template <>
struct Codec<db::Condition>
    : Fields<&db::Condition::column, &db::Condition::op, &db::Condition::value> {};

template <>
struct Codec<db::SetClause>
    : Fields<&db::SetClause::column, &db::SetClause::op, &db::SetClause::value> {};

template <>
struct Codec<db::Statement>
    : Fields<&db::Statement::kind, &db::Statement::table, &db::Statement::schema,
             &db::Statement::row, &db::Statement::key, &db::Statement::sets, &db::Statement::where,
             &db::Statement::agg, &db::Statement::agg_column, &db::Statement::order_by,
             &db::Statement::limit, &db::Statement::select_columns, &db::Statement::for_update> {};

}  // namespace shadow::wire
