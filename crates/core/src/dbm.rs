//! The Database Machine — the paper's closing claim, assembled.
//!
//! > "as componentisation dissolves the DBMSs architecture into components
//! > and that this is integrated, without boundaries, with the operating
//! > system (which in turn only activated the components that are required
//! > by the DB function, thus tailoring the architecture down to the
//! > metal), means that at *that instant* the system becomes effectively a
//! > Database Machine but potentially without the problems of
//! > standardisation and portability of the past."
//!
//! [`DatabaseMachine`] boots a Go! zero-kernel system and registers query
//! operators — scan, filter, join — as SISR-verified components. Running a
//! query drives the real `query`-crate operators, but **every operator
//! activation crosses a component boundary through the ORB**, paying the
//! Table 1 Go! price in simulated cycles. The result quantifies the
//! paper's central bet for the DBMS itself: with SISR-shaped protection,
//! full operator isolation costs a few ORB calls' worth of cycles —
//! affordable — where trap-shaped protection (a BSD boundary per operator
//! activation) would dwarf the query's own work.

use datacomp::{Row, Table};
use gokernel::component::{ComponentId, InterfaceId, Rights};
use gokernel::orb::Orb;
use machine::cost::{CostModel, Cycles};
use machine::isa::{Instr, Program};
use query::expr::Pred;
use query::op::WorkCounter;
use query::source::TableScan;
use std::fmt;

/// Errors from the Database Machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbmError {
    /// The underlying ORB refused (rejected image, missing component...).
    Orb(String),
    /// Unknown registered table.
    UnknownTable(String),
}

impl fmt::Display for DbmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbmError::Orb(e) => write!(f, "ORB: {e}"),
            DbmError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
        }
    }
}

/// A query's cost split: the work the operators did, and the cycles the
/// component boundaries cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryCost {
    /// Result rows.
    pub rows_out: u64,
    /// Operator activations (ORB crossings).
    pub activations: u64,
    /// Simulated cycles spent crossing component boundaries (ORB calls).
    pub boundary_cycles: Cycles,
    /// Simulated cycles the query's own work corresponds to (operator work
    /// units, one cycle each — comparisons/probes are ALU-scale).
    pub work_cycles: Cycles,
    /// What the same boundaries would cost under a trap-based monolithic
    /// kernel (one BSD-style crossing per activation).
    pub trap_equivalent_cycles: Cycles,
}

impl QueryCost {
    /// Componentisation overhead as a fraction of the query's own work.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        self.boundary_cycles as f64 / self.work_cycles.max(1) as f64
    }
}

/// One operator registered as a Go! component.
#[derive(Debug)]
struct OperatorComponent {
    iface: InterfaceId,
}

/// The assembled Database Machine.
#[derive(Debug)]
pub struct DatabaseMachine {
    /// The model the machine booted under; it also prices the trap-based
    /// boundaries a query is compared against.
    model: CostModel,
    orb: Orb,
    client: ComponentId,
    scan_comp: OperatorComponent,
    filter_comp: OperatorComponent,
    join_comp: OperatorComponent,
    tables: Vec<(String, Table)>,
    work: WorkCounter,
}

impl DatabaseMachine {
    /// Boot: the ORB comes up and the three operator components (the
    /// "select-project-join processor" dissolved into its elements) are
    /// verified, loaded and published.
    ///
    /// # Panics
    /// Never: boot uses known-good verified programs.
    #[must_use]
    pub fn boot(model: CostModel) -> Self {
        let mut orb = Orb::new(16 << 20, model.clone());
        let stub = Program::new(vec![Instr::Halt]).to_bytes();
        let mut component = |name: &str| {
            let ty = orb.load_type(name, &stub).expect("stub verifies");
            let inst = orb.instantiate(ty).expect("arena");
            orb.publish(inst, 0, Rights::PUBLIC, 0).expect("publish")
        };
        let scan = component("scan-operator");
        let filter = component("filter-operator");
        let join = component("join-operator");
        let client_ty = orb.load_type("query-client", &stub).expect("stub verifies");
        let client = orb.instantiate(client_ty).expect("arena");
        Self {
            model,
            orb,
            client,
            scan_comp: OperatorComponent { iface: scan },
            filter_comp: OperatorComponent { iface: filter },
            join_comp: OperatorComponent { iface: join },
            tables: Vec::new(),
            work: WorkCounter::new(),
        }
    }

    /// Register a table.
    pub fn register(&mut self, name: &str, table: Table) {
        self.tables.retain(|(n, _)| n != name);
        self.tables.push((name.to_owned(), table));
    }

    fn table(&self, name: &str) -> Result<&Table, DbmError> {
        self.tables
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
            .ok_or_else(|| DbmError::UnknownTable(name.to_owned()))
    }

    fn activate(&mut self, comp_iface: InterfaceId) -> Result<Cycles, DbmError> {
        self.orb
            .invoke(self.client, comp_iface, &[])
            .map(|o| o.cycles)
            .map_err(|e| DbmError::Orb(format!("{e:?}")))
    }

    /// Run `SELECT * FROM left JOIN right ON left.k0 = right.k0 WHERE
    /// pred(left_row)` — a filtered equijoin, the SPJ shape — with every
    /// operator *batch* activation crossing the ORB. Activations happen per
    /// `batch` rows, matching a vectorised engine's boundary-crossing rate.
    ///
    /// # Errors
    /// [`DbmError`] on unknown tables or ORB refusals.
    pub fn run_spj(
        &mut self,
        left: &str,
        right: &str,
        pred: &Pred,
        batch: u64,
    ) -> Result<(Vec<Row>, QueryCost), DbmError> {
        let ltab = self.table(left)?.clone();
        let rtab = self.table(right)?.clone();
        self.work.reset();
        let mut boundary_cycles: Cycles = 0;
        let mut activations: u64 = 0;

        // Component boundary accounting: one ORB call per `batch` rows per
        // operator, as a vectorised pipeline would cross it.
        let mut charge = |dbm: &mut Self, iface: InterfaceId, rows: u64| -> Result<(), DbmError> {
            let calls = rows.div_ceil(batch.max(1)).max(1);
            for _ in 0..calls {
                boundary_cycles += dbm.activate(iface)?;
                activations += 1;
            }
            Ok(())
        };

        // Scan both inputs (through the scan component)...
        let scan_iface = self.scan_comp.iface;
        charge(self, scan_iface, ltab.len() as u64)?;
        charge(self, scan_iface, rtab.len() as u64)?;
        // ...filter the left (through the filter component)...
        let filter_iface = self.filter_comp.iface;
        charge(self, filter_iface, ltab.len() as u64)?;
        // ...and join (through the join component).
        let join_iface = self.join_comp.iface;
        charge(self, join_iface, (ltab.len() + rtab.len()) as u64)?;

        // The actual relational work, with the real operators.
        let filtered = query::basic::Filter::new(
            Box::new(TableScan::new(ltab, self.work.clone())),
            pred.clone(),
            self.work.clone(),
        );
        let mut join = query::basic::HashJoin::new(
            Box::new(filtered),
            Box::new(TableScan::new(rtab, self.work.clone())),
            vec![0],
            vec![0],
            true,
            self.work.clone(),
        );
        let rows = query::op::drain(&mut join, 0);

        let work_cycles = self.work.snapshot().total_ops();
        let m = &self.model;
        // One BSD-style boundary per activation: trap pair + context switch
        // with its TLB/cache refill (the Table 1 dominant terms).
        let bsd_per_crossing = m.trap_enter
            + m.trap_exit
            + m.regfile_save * 2
            + m.fpu_save
            + m.page_table_switch
            + m.tlb_refill_entry * 250
            + m.cache_miss * 900;
        let cost = QueryCost {
            rows_out: rows.len() as u64,
            activations,
            boundary_cycles,
            work_cycles,
            trap_equivalent_cycles: activations * bsd_per_crossing,
        };
        Ok((rows, cost))
    }

    /// Protection bytes the whole machine uses (the "down to the metal"
    /// footprint).
    #[must_use]
    pub fn protection_bytes(&self) -> u64 {
        self.orb.protection_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacomp::{ColumnType, Schema, Value};

    fn table(n: i64, dup: i64) -> Table {
        let schema = Schema::new(&[("k", ColumnType::Int), ("v", ColumnType::Int)]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.insert(vec![Value::Int(i % dup), Value::Int(i)]).unwrap();
        }
        t
    }

    fn machine() -> DatabaseMachine {
        let mut dbm = DatabaseMachine::boot(CostModel::pentium());
        dbm.register("orders", table(500, 20));
        dbm.register("customers", table(200, 20));
        dbm
    }

    #[test]
    fn spj_results_match_a_native_oracle() {
        let mut dbm = machine();
        let pred = Pred::lt(1, Value::Int(250)); // v < 250
        let (rows, cost) = dbm.run_spj("orders", "customers", &pred, 64).unwrap();
        // Native oracle.
        let l = table(500, 20);
        let r = table(200, 20);
        let expected: usize = l
            .rows()
            .iter()
            .filter(|lr| pred.eval(lr))
            .map(|lr| r.rows().iter().filter(|rr| rr[0] == lr[0]).count())
            .sum();
        assert_eq!(rows.len(), expected);
        assert_eq!(cost.rows_out as usize, expected);
    }

    #[test]
    fn componentisation_overhead_is_modest_under_sisr() {
        let mut dbm = machine();
        // At a vectorised engine's batch size the ORB boundaries cost a
        // small fraction of the query's own work...
        let (_, cost) = dbm.run_spj("orders", "customers", &Pred::True, 512).unwrap();
        assert!(
            cost.overhead_fraction() < 0.25,
            "boundary {} vs work {} cycles",
            cost.boundary_cycles,
            cost.work_cycles
        );
        // ...and even at a fine 64-row granularity stay the same order of
        // magnitude as the work — affordable isolation...
        let (_, fine) = dbm.run_spj("orders", "customers", &Pred::True, 64).unwrap();
        assert!(fine.overhead_fraction() < 1.5, "{}", fine.overhead_fraction());
        // ...where trap-shaped boundaries would dwarf everything.
        assert!(cost.trap_equivalent_cycles > cost.work_cycles * 10);
        assert!(cost.trap_equivalent_cycles / cost.boundary_cycles.max(1) > 100);
    }

    #[test]
    fn finer_batches_raise_overhead_smoothly() {
        // The componentisation-granularity trade the paper discusses:
        // finer-grained crossing (smaller batches) costs more boundary
        // cycles, monotonically.
        let mut dbm = machine();
        let mut last = 0;
        for batch in [512, 64, 8, 1] {
            let (_, cost) = dbm.run_spj("orders", "customers", &Pred::True, batch).unwrap();
            assert!(
                cost.boundary_cycles >= last,
                "batch {batch}: {} < {last}",
                cost.boundary_cycles
            );
            last = cost.boundary_cycles;
        }
    }

    #[test]
    fn trap_equivalent_is_priced_under_the_boot_model() {
        let m = CostModel::deep_pipeline();
        let mut dbm = DatabaseMachine::boot(m.clone());
        dbm.register("orders", table(500, 20));
        dbm.register("customers", table(200, 20));
        let (_, cost) = dbm.run_spj("orders", "customers", &Pred::True, 64).unwrap();
        let bsd_per_crossing = m.trap_enter
            + m.trap_exit
            + m.regfile_save * 2
            + m.fpu_save
            + m.page_table_switch
            + m.tlb_refill_entry * 250
            + m.cache_miss * 900;
        assert_eq!(cost.trap_equivalent_cycles, cost.activations * bsd_per_crossing);
    }

    #[test]
    fn every_activation_is_one_orb_invocation() {
        let mut dbm = machine();
        for batch in [1, 64, 512] {
            let before = dbm.orb.invocations();
            let (_, cost) = dbm.run_spj("orders", "customers", &Pred::True, batch).unwrap();
            assert_eq!(dbm.orb.invocations() - before, cost.activations, "batch {batch}");
            // Scan both inputs, filter the left, join both.
            let calls = |rows: u64| rows.div_ceil(batch).max(1);
            assert_eq!(cost.activations, calls(500) + calls(200) + calls(500) + calls(700));
        }
    }

    #[test]
    fn unknown_table_is_reported() {
        let mut dbm = machine();
        assert_eq!(
            dbm.run_spj("ghost", "customers", &Pred::True, 64).unwrap_err(),
            DbmError::UnknownTable("ghost".into())
        );
    }

    #[test]
    fn protection_footprint_is_descriptor_scale() {
        let dbm = machine();
        // 4 components (3 operators + client) + segments, well under a page.
        assert!(dbm.protection_bytes() < 4096, "{}", dbm.protection_bytes());
    }
}
