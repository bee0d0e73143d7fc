//! `dbm_spj`: the Database Machine's select-project-join with every
//! operator activation crossing the ORB, at three batch sizes — one
//! workload, two regimes (boundary-bound at batch 1, operator-bound at
//! batch 512).

use crate::catalog::LayerRows;
use crate::harness::{span_median_ns, Checks, RoundOutcome, Scale, Timed, Workload};
use crate::layers;
use crate::trace::{Folded, Recorder};
use adm_core::dbm::{DatabaseMachine, DbmError, QueryCost};
use adm_rng::Pcg32;
use datacomp::{Row, Table, Value};
use machine::cost::CostModel;
use query::expr::Pred;
use query::workload::{gen_table, KeyDist};
use std::collections::BTreeMap;

/// Rows of the probe side.
const ORDERS: usize = 20_000;
/// Rows of the build side, and the key domain of both.
const CUSTOMERS: usize = 2_000;
/// The batch sizes every round cycles through, with their span names.
const BATCHES: [(u64, &str); 3] =
    [(1, "core.dbm.run_spj_b1"), (64, "core.dbm.run_spj_b64"), (512, "core.dbm.run_spj_b512")];

/// The generated tables and predicate.
#[derive(Debug)]
pub struct Inputs {
    /// `orders(k, v)`: Zipf keys from `gen_table`, `v` = row number.
    pub orders: Table,
    /// `customers(k, v)`: every key of the domain exactly once, in a
    /// seeded order — a dimension table, so each surviving order joins
    /// exactly one customer and the result size does not depend on the
    /// seed.
    pub customers: Table,
    /// `orders.v < threshold`, keeping 70% of the orders.
    pub pred: Pred,
    threshold: i64,
}

impl Inputs {
    /// Generate both tables and the predicate from `seed`.
    ///
    /// # Panics
    /// Never: the rows are built to the schema.
    #[must_use]
    pub fn generate(seed: u64, scale: Scale) -> Self {
        let mut rng = Pcg32::new(seed);
        let (orders_n, customers_n) = (scale.n(ORDERS), scale.n(CUSTOMERS));
        let domain = customers_n as i64;
        let orders = gen_table(orders_n, KeyDist::Zipf { domain, s: 1.1 }, rng.next_u64());
        let mut keys: Vec<i64> = (0..domain).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.index(i + 1));
        }
        let mut customers = Table::new(orders.schema().clone());
        for (i, k) in keys.into_iter().enumerate() {
            customers
                .insert(vec![Value::Int(k), Value::Int(i as i64)])
                .expect("the row matches the (k, v) schema");
        }
        let threshold = orders_n as i64 * 7 / 10;
        Self { orders, customers, pred: Pred::lt(1, Value::Int(threshold)), threshold }
    }

    /// Fingerprint of the inputs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let rows = |t: &Table| t.rows().iter().map(row_digest).fold(0u64, u64::wrapping_add);
        obs::fnv1a(
            format!("{:x}/{:x}/{}", rows(&self.orders), rows(&self.customers), self.threshold)
                .as_bytes(),
        )
    }
}

fn row_digest(row: &Row) -> u64 {
    obs::fnv1a(format!("{row:?}").as_bytes())
}

/// Row count and order-independent checksum of a result.
fn result_digest(rows: &[Row]) -> (usize, u64) {
    (rows.len(), rows.iter().map(row_digest).fold(0u64, u64::wrapping_add))
}

/// The native oracle: filter the orders, look each survivor's key up in
/// an index over the customers, concatenate. No operator of the `query`
/// crate is involved.
fn native_join(inputs: &Inputs) -> (usize, u64) {
    let mut by_key: BTreeMap<&Value, Vec<&Row>> = BTreeMap::new();
    for c in inputs.customers.rows() {
        by_key.entry(&c[0]).or_default().push(c);
    }
    let joined: Vec<Row> = inputs
        .orders
        .rows()
        .iter()
        .filter(|o| matches!(o[1], Value::Int(v) if v < inputs.threshold))
        .flat_map(|o| {
            by_key
                .get(&o[0])
                .into_iter()
                .flatten()
                .map(move |c| o.iter().chain(c.iter()).cloned().collect::<Row>())
        })
        .collect();
    result_digest(&joined)
}

/// `dbm_spj`.
pub struct DbmSpj {
    inputs: Inputs,
    dbm: DatabaseMachine,
    want: (usize, u64),
    /// Simulated cycles of one ORB crossing, measured on a replica of the
    /// machine's ORB.
    cycles_per_crossing: u64,
    /// The cost report of the last batch-512 query.
    last_cost: Option<QueryCost>,
}

impl DbmSpj {
    /// Generate the tables, boot the machine, register them.
    #[must_use]
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let inputs = Inputs::generate(seed, scale);
        let mut dbm = DatabaseMachine::boot(CostModel::pentium());
        dbm.register("orders", inputs.orders.clone());
        dbm.register("customers", inputs.customers.clone());
        let want = native_join(&inputs);
        let cycles_per_crossing = layers::dbm::orb_crossing_cycles();
        Self { inputs, dbm, want, cycles_per_crossing, last_cost: None }
    }

    /// Activations `run_spj` must make at `batch`: scan both inputs,
    /// filter the left, join both.
    fn activations(&self, batch: u64) -> u64 {
        let (l, r) = (self.inputs.orders.len() as u64, self.inputs.customers.len() as u64);
        let calls = |rows: u64| rows.div_ceil(batch).max(1);
        calls(l) + calls(r) + calls(l) + calls(l + r)
    }
}

impl Workload for DbmSpj {
    fn round(&mut self, rec: &mut Recorder, checks: &mut Checks) -> RoundOutcome {
        let mut results: Vec<Result<(Vec<Row>, QueryCost), DbmError>> = Vec::with_capacity(3);
        let timed = Timed::start(rec);
        for (batch, span_name) in BATCHES {
            let span = rec.begin(span_name);
            results.push(self.dbm.run_spj("orders", "customers", &self.inputs.pred, batch));
            rec.end(span);
        }
        let secs = timed.stop(rec);

        for ((batch, _), result) in BATCHES.iter().zip(&results) {
            match result {
                Err(e) => checks.expect(false, || format!("run_spj at batch {batch} failed: {e}")),
                Ok((rows, cost)) => {
                    let got = result_digest(rows);
                    checks.expect(got == self.want, || {
                        format!("batch {batch}: result {got:x?} != native join {:x?}", self.want)
                    });
                    let want_activations = self.activations(*batch);
                    checks.expect(
                        cost.activations == want_activations
                            && cost.boundary_cycles == cost.activations * self.cycles_per_crossing,
                        || {
                            format!(
                                "batch {batch}: {} activations / {} boundary cycles, expected {want_activations} x {}",
                                cost.activations, cost.boundary_cycles, self.cycles_per_crossing
                            )
                        },
                    );
                    self.last_cost = Some(*cost);
                }
            }
        }
        RoundOutcome { ops: BATCHES.len() as u64, secs }
    }

    fn layer_rows(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        _rounds: u32,
        rows: &mut LayerRows,
    ) {
        for (_, span_name) in BATCHES {
            rows.set(&format!("{span_name}_ms"), span_median_ns(folded, span_name) / 1e6);
        }
        rows.set("gokernel.orb.invoke_sim_cycles", self.cycles_per_crossing as f64);
        if let Some(cost) = self.last_cost {
            let input_rows = (self.inputs.orders.len() + self.inputs.customers.len()) as f64;
            rows.set("query.work_ops_per_row", cost.work_cycles as f64 / input_rows);
        }
        layers::dbm::drive(&self.inputs.orders, &self.inputs.customers, &self.inputs.pred, rows);
    }
}

/// Fingerprint of the inputs `seed` generates.
#[must_use]
pub fn input_digest(seed: u64, scale: Scale) -> u64 {
    Inputs::generate(seed, scale).digest()
}
