//! The TPC-C-style evaluation client — the paper's future-work item
//! ("develop a Chronos Agent that wraps the OLTP-Bench") realized against
//! the embedded store.
//!
//! Transactions execute as sequences of document operations without
//! multi-document atomicity, faithful to the MongoDB generation the demo
//! targets (pre-4.0 MongoDB had no multi-document transactions). Parameters:
//!
//! | parameter | meaning |
//! |---|---|
//! | `engine` | storage engine (`wiredtiger` / `mmapv1`) |
//! | `threads` | concurrent terminals |
//! | `warehouses` | scale factor |
//! | `transaction_count` | transactions per run |
//! | `durability` | disk-backed with synced journal/WAL |
//!
//! The result document reports per-transaction-type latencies plus
//! `new_orders_per_minute` — the tpmC-style headline metric.

use chronos_json::{obj, Value};
use chronos_metrics::{Recorder, RunSummary};
use chronos_util::pool::scoped_indexed;
use chronos_workload::tpcc::{
    keys, TpccConfig, TpccRunner, TpccTx, CUSTOMERS_PER_DISTRICT, DISTRICTS_PER_WAREHOUSE, ITEMS,
};
use minidoc::{Collection, Database, Filter};

use crate::context::JobContext;
use crate::docstore_client::{db_config, DataDir};
use crate::runtime::EvaluationClient;

/// The tpcc-lite evaluation client.
#[derive(Default)]
pub struct TpccClient {
    state: Option<TpccState>,
}

struct TpccState {
    db: Database,
    runner: TpccRunner,
    threads: usize,
    /// Temp data directory for durable runs. Declared after `db`, so the
    /// database is closed before its directory goes.
    _data_dir: Option<DataDir>,
}

impl TpccClient {
    /// Creates an idle client.
    pub fn new() -> Self {
        TpccClient::default()
    }
}

/// Collection handles for the tpcc-lite schema.
struct Tables {
    warehouse: Collection,
    district: Collection,
    customer: Collection,
    item: Collection,
    stock: Collection,
    orders: Collection,
    new_orders: Collection,
    history: Collection,
}

impl Tables {
    fn open(db: &Database) -> Tables {
        Tables {
            warehouse: db.collection("warehouse"),
            district: db.collection("district"),
            customer: db.collection("customer"),
            item: db.collection("item"),
            stock: db.collection("stock"),
            orders: db.collection("orders"),
            new_orders: db.collection("new_orders"),
            history: db.collection("history"),
        }
    }
}

/// Loads the initial population for `warehouses`.
fn load_population(db: &Database, warehouses: u64) -> Result<(), String> {
    let t = Tables::open(db);
    let e = |err: minidoc::DbError| err.to_string();
    for i in 1..=ITEMS {
        t.item
            .insert(
                &keys::item(i),
                &obj! {"name" => format!("item-{i}"), "price_cents" => (i % 9000 + 100) as i64},
            )
            .map_err(e)?;
    }
    for w in 1..=warehouses {
        t.warehouse
            .insert(&keys::warehouse(w), &obj! {"tax_bp" => (w % 20) as i64, "ytd_cents" => 0})
            .map_err(e)?;
        for i in 1..=ITEMS {
            t.stock.insert(&keys::stock(w, i), &obj! {"quantity" => 50, "ytd" => 0}).map_err(e)?;
        }
        for d in 1..=DISTRICTS_PER_WAREHOUSE {
            t.district
                .insert(
                    &keys::district(w, d),
                    &obj! {"tax_bp" => (d % 20) as i64, "ytd_cents" => 0, "next_o_id" => 1},
                )
                .map_err(e)?;
            for c in 1..=CUSTOMERS_PER_DISTRICT {
                t.customer
                    .insert(
                        &keys::customer(w, d, c),
                        &obj! {
                            "name" => format!("customer-{c}"),
                            "balance_cents" => 0,
                            "payments" => 0,
                            "orders" => 0,
                        },
                    )
                    .map_err(e)?;
            }
        }
    }
    Ok(())
}

/// Executes one transaction. Returns an error string on any failed step
/// (counted as a failed transaction by the recorder).
fn execute_tx(db: &Database, runner: &TpccRunner, tx: &TpccTx) -> Result<(), String> {
    let t = Tables::open(db);
    let e = |err: minidoc::DbError| err.to_string();
    match tx {
        TpccTx::NewOrder { warehouse, district, customer, lines } => {
            // Reads: warehouse tax, district (also order-id counter),
            // customer.
            t.warehouse.get(&keys::warehouse(*warehouse)).map_err(e)?.ok_or("missing warehouse")?;
            let d_key = keys::district(*warehouse, *district);
            let mut d = t.district.get(&d_key).map_err(e)?.ok_or("missing district")?;
            let next = d.get("next_o_id").and_then(Value::as_i64).unwrap_or(1);
            d.set("next_o_id", next + 1);
            t.district.update(&d_key, &d).map_err(e)?;
            let c_key = keys::customer(*warehouse, *district, *customer);
            let mut c = t.customer.get(&c_key).map_err(e)?.ok_or("missing customer")?;
            // Order lines: read item + stock, decrement stock.
            let mut total = 0i64;
            let mut line_docs = Vec::with_capacity(lines.len());
            for (item, supply, qty) in lines {
                let item_doc = t.item.get(&keys::item(*item)).map_err(e)?.ok_or("missing item")?;
                let price = item_doc.get("price_cents").and_then(Value::as_i64).unwrap_or(0);
                let s_key = keys::stock(*supply, *item);
                let mut stock = t.stock.get(&s_key).map_err(e)?.ok_or("missing stock")?;
                let mut quantity = stock.get("quantity").and_then(Value::as_i64).unwrap_or(0);
                quantity -= *qty as i64;
                if quantity < 10 {
                    quantity += 91; // TPC-C restock rule
                }
                stock.set("quantity", quantity);
                stock.set(
                    "ytd",
                    stock.get("ytd").and_then(Value::as_i64).unwrap_or(0) + *qty as i64,
                );
                t.stock.update(&s_key, &stock).map_err(e)?;
                total += price * *qty as i64;
                line_docs.push(obj! {
                    "item" => *item,
                    "supply_warehouse" => *supply,
                    "quantity" => *qty as i64,
                    "amount_cents" => price * *qty as i64,
                });
            }
            // Writes: the order document (lines embedded — document model)
            // and the undelivered marker.
            let order_id = runner.allocate_order_id();
            t.orders
                .insert(
                    &keys::order(order_id),
                    &obj! {
                        "warehouse" => *warehouse,
                        "district" => *district,
                        "customer" => *customer,
                        "lines" => Value::Array(line_docs),
                        "total_cents" => total,
                        "carrier" => Value::Null,
                    },
                )
                .map_err(e)?;
            t.new_orders
                .insert(
                    &keys::new_order(*warehouse, *district, order_id),
                    &obj! {"order" => order_id},
                )
                .map_err(e)?;
            c.set("orders", c.get("orders").and_then(Value::as_i64).unwrap_or(0) + 1);
            c.set("last_order", order_id);
            t.customer.update(&c_key, &c).map_err(e)?;
            Ok(())
        }
        TpccTx::Payment { warehouse, district, customer, amount_cents } => {
            let w_key = keys::warehouse(*warehouse);
            let mut w = t.warehouse.get(&w_key).map_err(e)?.ok_or("missing warehouse")?;
            w.set(
                "ytd_cents",
                w.get("ytd_cents").and_then(Value::as_i64).unwrap_or(0) + *amount_cents as i64,
            );
            t.warehouse.update(&w_key, &w).map_err(e)?;
            let d_key = keys::district(*warehouse, *district);
            let mut d = t.district.get(&d_key).map_err(e)?.ok_or("missing district")?;
            d.set(
                "ytd_cents",
                d.get("ytd_cents").and_then(Value::as_i64).unwrap_or(0) + *amount_cents as i64,
            );
            t.district.update(&d_key, &d).map_err(e)?;
            let c_key = keys::customer(*warehouse, *district, *customer);
            let mut c = t.customer.get(&c_key).map_err(e)?.ok_or("missing customer")?;
            c.set(
                "balance_cents",
                c.get("balance_cents").and_then(Value::as_i64).unwrap_or(0) - *amount_cents as i64,
            );
            c.set("payments", c.get("payments").and_then(Value::as_i64).unwrap_or(0) + 1);
            t.customer.update(&c_key, &c).map_err(e)?;
            t.history
                .upsert(
                    &format!("h{}", runner.allocate_order_id()),
                    &obj! {"customer" => c_key.as_str(), "amount_cents" => *amount_cents as i64},
                )
                .map_err(e)?;
            Ok(())
        }
        TpccTx::OrderStatus { warehouse, district, customer } => {
            let c_key = keys::customer(*warehouse, *district, *customer);
            let c = t.customer.get(&c_key).map_err(e)?.ok_or("missing customer")?;
            if let Some(last) = c.get("last_order").and_then(Value::as_u64) {
                t.orders.get(&keys::order(last)).map_err(e)?;
            }
            Ok(())
        }
        TpccTx::Delivery { warehouse, carrier } => {
            // Oldest undelivered order per district: the new_orders keys are
            // prefix-ordered by (warehouse, district, order id).
            for d in 1..=DISTRICTS_PER_WAREHOUSE {
                let prefix = keys::new_order(*warehouse, d, 0);
                let batch = t.new_orders.scan(&prefix, 1).map_err(e)?;
                let Some((marker_key, marker)) = batch.into_iter().next() else { continue };
                // The scan may have run past this district's prefix.
                if !marker_key.starts_with(&format!("w{:04}d{:02}", warehouse, d)) {
                    continue;
                }
                let Some(order_id) = marker.get("order").and_then(Value::as_u64) else {
                    continue;
                };
                let o_key = keys::order(order_id);
                if let Some(mut order) = t.orders.get(&o_key).map_err(e)? {
                    order.set("carrier", *carrier as i64);
                    t.orders.update(&o_key, &order).map_err(e)?;
                }
                t.new_orders.delete(&marker_key).map_err(e)?;
            }
            Ok(())
        }
        TpccTx::StockLevel { warehouse, district, threshold } => {
            // Items in the district's recent orders with stock below the
            // threshold. Recent = last 20 orders of this district.
            let d_key = keys::district(*warehouse, *district);
            t.district.get(&d_key).map_err(e)?.ok_or("missing district")?;
            let recent = t
                .orders
                .find(&Filter::and(vec![
                    Filter::eq("warehouse", *warehouse as i64),
                    Filter::eq("district", *district as i64),
                ]))
                .map_err(e)?;
            let mut low = 0usize;
            for (_, order) in recent.iter().rev().take(20) {
                if let Some(lines) = order.get("lines").and_then(Value::as_array) {
                    for line in lines {
                        let Some(item) = line.get("item").and_then(Value::as_u64) else {
                            continue;
                        };
                        if let Some(stock) =
                            t.stock.get(&keys::stock(*warehouse, item)).map_err(e)?
                        {
                            let quantity =
                                stock.get("quantity").and_then(Value::as_i64).unwrap_or(0);
                            if quantity < *threshold as i64 {
                                low += 1;
                            }
                        }
                    }
                }
            }
            let _ = low;
            Ok(())
        }
    }
}

impl EvaluationClient for TpccClient {
    fn name(&self) -> &str {
        "minidoc-tpcc"
    }

    fn set_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        let db_config = db_config(ctx, "minidoc-tpcc")?;
        let engine = db_config.engine;
        let config = TpccConfig {
            warehouses: ctx.param_i64("warehouses").unwrap_or(2).max(1) as u64,
            transaction_count: ctx.param_i64("transaction_count").unwrap_or(1_000).max(1) as u64,
            seed: ctx.param_i64("seed").unwrap_or(7) as u64,
        };
        let threads = ctx.param_i64("threads").unwrap_or(1).max(1) as usize;
        ctx.log(format!(
            "set_up: tpcc-lite engine={engine} warehouses={} transactions={} threads={threads}",
            config.warehouses, config.transaction_count
        ));
        // Owned from before the database creates it, so a failed or
        // panicking load removes it too.
        let data_dir = db_config.data_dir.clone().map(DataDir);
        let db = Database::open(db_config).map_err(|err| err.to_string())?;
        load_population(&db, config.warehouses)?;
        ctx.log(format!(
            "set_up: loaded {} items, {} stocks, {} customers",
            db.collection("item").count(),
            db.collection("stock").count(),
            db.collection("customer").count(),
        ));
        ctx.set_progress(10);
        let runner = TpccRunner::new(config)?;
        self.state = Some(TpccState { db, runner, threads, _data_dir: data_dir });
        Ok(())
    }

    fn warm_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        let state = self.state.as_ref().ok_or("warm_up before set_up")?;
        // One short transaction per district warms caches and counters.
        for tx in state.runner.stream(0, 1).take(10) {
            execute_tx(&state.db, &state.runner, &tx)?;
        }
        ctx.set_progress(15);
        Ok(())
    }

    fn execute(&mut self, ctx: &JobContext) -> Result<Value, String> {
        let state = self.state.as_ref().ok_or("execute before set_up")?;
        let threads = state.threads;
        let summaries: Vec<RunSummary> = scoped_indexed(threads, |thread| {
            let mut recorder = Recorder::new();
            for tx in state.runner.stream(thread, threads) {
                let kind = tx.kind();
                let _ = recorder.time(kind, || execute_tx(&state.db, &state.runner, &tx));
            }
            recorder.into_summary()
        });
        let merged = RunSummary::merge_all(summaries);
        let new_orders = merged.op("new_order").map(|s| s.latency_micros.count()).unwrap_or(0);
        let minutes = (merged.wall_millis.max(1) as f64) / 60_000.0;
        let mut data = merged.to_json();
        data.set("threads", threads as i64);
        data.set("new_orders_per_minute", new_orders as f64 / minutes);
        data.set("engine_stats", state.db.stats().to_json());
        ctx.log(format!(
            "execute: {} transactions, {:.0} new-orders/min, {} errors",
            merged.total_ops(),
            new_orders as f64 / minutes,
            merged.total_errors(),
        ));
        Ok(data)
    }

    fn tear_down(&mut self, ctx: &JobContext) {
        if self.state.take().is_some() {
            ctx.log("tear_down: dropped database");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_util::Id;

    fn ctx_threads(engine: &str, txs: i64, threads: i64) -> JobContext {
        JobContext::new(
            Id::generate(),
            obj! {
                "engine" => engine,
                "threads" => threads,
                "warehouses" => 1,
                "transaction_count" => txs,
            },
        )
    }

    fn ctx(engine: &str, txs: i64) -> JobContext {
        ctx_threads(engine, txs, 2)
    }

    #[test]
    fn full_tpcc_lifecycle_on_both_engines() {
        for engine in ["wiredtiger", "mmapv1"] {
            let mut client = TpccClient::new();
            let ctx = ctx(engine, 300);
            client.set_up(&ctx).unwrap();
            client.warm_up(&ctx).unwrap();
            let data = client.execute(&ctx).unwrap();
            client.tear_down(&ctx);
            assert_eq!(data.pointer("/total_ops").and_then(Value::as_u64), Some(300));
            assert_eq!(
                data.pointer("/total_errors").and_then(Value::as_u64),
                Some(0),
                "engine {engine}: {}",
                data.to_string()
            );
            assert!(data.pointer("/new_orders_per_minute").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(data.pointer("/operations/payment/latency_micros/p99").is_some());
        }
    }

    #[test]
    fn money_is_conserved_across_payments() {
        // Single terminal: transactions are read-modify-write sequences
        // WITHOUT multi-document atomicity (faithful to pre-4.0 MongoDB),
        // so exact conservation only holds without concurrent payments —
        // under concurrency, lost updates are an expected property of the
        // modeled system, not a bug in the harness.
        let mut client = TpccClient::new();
        let ctx = ctx_threads("wiredtiger", 400, 1);
        client.set_up(&ctx).unwrap();
        client.execute(&ctx).unwrap();
        // Sum of warehouse YTD == sum of district YTD == -(sum of customer
        // balances) : every payment hits all three.
        let state = client.state.as_ref().unwrap();
        let sum = |coll: &str, field: &str| -> i64 {
            state
                .db
                .collection(coll)
                .scan("", usize::MAX)
                .unwrap()
                .iter()
                .map(|(_, d)| d.get(field).and_then(Value::as_i64).unwrap_or(0))
                .sum()
        };
        let warehouse_ytd = sum("warehouse", "ytd_cents");
        let district_ytd = sum("district", "ytd_cents");
        let customer_balance = sum("customer", "balance_cents");
        assert!(warehouse_ytd > 0, "some payments must have run");
        assert_eq!(warehouse_ytd, district_ytd);
        assert_eq!(warehouse_ytd, -customer_balance);
    }

    #[test]
    fn delivery_drains_new_orders() {
        let mut client = TpccClient::new();
        let ctx = ctx("wiredtiger", 500);
        client.set_up(&ctx).unwrap();
        client.execute(&ctx).unwrap();
        let state = client.state.as_ref().unwrap();
        let orders = state.db.collection("orders").count();
        let undelivered = state.db.collection("new_orders").count();
        assert!(orders > 0);
        assert!(undelivered <= orders, "markers only exist for real orders");
        // Delivered orders carry a carrier.
        let delivered = state
            .db
            .collection("orders")
            .find(&Filter::exists("carrier"))
            .unwrap()
            .iter()
            .filter(|(_, d)| !d.get("carrier").map(Value::is_null).unwrap_or(true))
            .count() as u64;
        assert_eq!(delivered, orders - undelivered);
    }
}
