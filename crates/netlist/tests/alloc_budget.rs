//! Allocation budgets for the structural-Verilog importer and exporter.
//!
//! A counting global allocator pins how many heap allocations
//! `from_verilog` and `to_verilog` make per cell on a netlist of about
//! 10^4 cells. Unlike wall time, the count does not drift with the
//! host, so a change that brings back a per-token vector, a per-wire
//! `format!` or a per-connection `Vec` fails here.
//!
//! This file holds exactly one `#[test]` so no concurrent test can
//! allocate while the counter is being read.

use scanguard_netlist::{from_verilog, to_verilog, GateKind, Netlist, NetlistBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per cell `from_verilog` may make. The netlist it returns
/// needs about two per cell on this design: each cell's input list, the
/// flops' cell and net names, and the fan-out lists `revalidate`
/// builds. Measured: 2.02 (10.03 before the streaming importer).
const IMPORT_BUDGET: f64 = 2.5;
/// Allocations per cell `to_verilog` may make: the output buffer and
/// the identifier tables grow a logarithmic number of times, nothing is
/// allocated per net, cell or connection. Measured: 24 in all, 0.0024
/// per cell (20.23 per cell before the one-pass writer).
const EXPORT_BUDGET: f64 = 0.01;

/// A scan-stitched register file in the shape of the generated designs:
/// named input and output buses (escaped identifiers), named scan flops,
/// anonymous glue gates of several arities, and output ports that alias
/// internal nets. About 10^4 cells.
fn register_file(rows: usize) -> Netlist {
    let mut b = NetlistBuilder::new("regfile");
    let d = b.input_bus("d", 8);
    let se = b.input("se");
    let mut prev = b.input_bus("si", 8);
    for r in 0..rows {
        let mut row = Vec::with_capacity(8);
        for c in 0..8 {
            let x = b.xor2(d[c], prev[(c + 1) % 8]);
            let m = b.mux2(d[(c + r) % 8], x, prev[c]);
            let a = b.and3(m, x, d[c]);
            let (q, _) = b.sdff(&format!("r{r}_{c}"), a, prev[c], se);
            row.push(b.cell(GateKind::Not, vec![q]));
        }
        prev = row;
    }
    b.output_bus("q", &prev);
    b.finish().unwrap()
}

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn import_and_export_stay_within_their_allocation_budgets() {
    let nl = register_file(250);
    let cells = nl.cell_count() as f64;
    assert!(cells >= 10_000.0, "{cells} cells");

    let (src, export) = allocations(|| to_verilog(&nl));
    let (back, import) = allocations(|| from_verilog(&src).unwrap());
    assert_eq!(back.cell_count(), nl.cell_count());
    assert_eq!(
        to_verilog(&back),
        src,
        "the canonical form is a fixed point"
    );

    let export_per_cell = export as f64 / cells;
    let import_per_cell = import as f64 / cells;
    println!(
        "{cells} cells: to_verilog {export} allocations ({export_per_cell:.2}/cell), \
         from_verilog {import} ({import_per_cell:.2}/cell)"
    );
    assert!(
        export_per_cell <= EXPORT_BUDGET,
        "to_verilog made {export_per_cell:.2} allocations per cell (budget {EXPORT_BUDGET})"
    );
    assert!(
        import_per_cell <= IMPORT_BUDGET,
        "from_verilog made {import_per_cell:.2} allocations per cell (budget {IMPORT_BUDGET})"
    );
}
