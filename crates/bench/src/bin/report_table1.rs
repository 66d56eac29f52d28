//! Regenerates Table 1: dynamic and static verdicts for every corpus row,
//! side by side with the verdicts the paper reports (including the
//! external-tool columns, which are reproduced as reported constants —
//! Liquid Haskell, Isabelle, and ACL2 cannot be run here).
//!
//! Run: `cargo run --release -p sct-bench --bin report_table1`

use sct_core::monitor::TableStrategy;
use sct_corpus::{run_dynamic, table1, Verdict};
use sct_symbolic::{verify_function, ExecConfig};

fn main() {
    println!("Table 1 — Evaluation on terminating programs");
    println!("(paper cells: Y pass, YA annotated, YO custom order, YR rewritten,");
    println!(" N fail, -H no higher-order support, -T not typable, . not reported)\n");
    println!(
        "{:<15} {:>9} {:>9} | {:>9} {:>9} | {:>5} {:>9} {:>5}",
        "program", "dyn:paper", "dyn:ours", "st:paper", "st:ours", "LH", "Isabelle", "ACL2"
    );
    println!("{}", "-".repeat(84));

    let mut dynamic_agree = 0usize;
    let mut static_agree = 0usize;
    let mut static_total = 0usize;
    let rows = table1::all();
    let total = rows.len();

    for p in rows {
        let dyn_ours = match run_dynamic(&p, TableStrategy::Imperative) {
            Ok(_) => {
                if p.order == sct_corpus::OrderSpec::Default {
                    "Y"
                } else {
                    "YO"
                }
            }
            Err(_) => "N",
        };
        if (dyn_ours != "N") == p.paper.dynamic.is_pass() {
            dynamic_agree += 1;
        }

        let st_ours = match p.static_spec {
            None => "N".to_string(),
            Some(spec) => {
                let prog = sct_lang::compile_program(p.source).expect("compiles");
                let verdict = verify_function(
                    &prog,
                    spec.function,
                    spec.domains,
                    spec.result,
                    &ExecConfig::default(),
                );
                if verdict.is_verified() {
                    "Y".to_string()
                } else {
                    "N".to_string()
                }
            }
        };
        static_total += 1;
        if (st_ours == "Y") == (p.paper.static_ == Verdict::Pass) {
            static_agree += 1;
        }

        println!(
            "{:<15} {:>9} {:>9} | {:>9} {:>9} | {:>5} {:>9} {:>5}",
            p.id,
            p.paper.dynamic.cell(),
            dyn_ours,
            p.paper.static_.cell(),
            st_ours,
            p.paper.liquid_haskell.cell(),
            p.paper.isabelle.cell(),
            p.paper.acl2.cell(),
        );
    }

    println!("{}", "-".repeat(84));
    println!("dynamic column agreement: {dynamic_agree}/{total}");
    println!(
        "static column agreement:  {static_agree}/{static_total}  \
         (deviations are precision wins; see STRONGER_THAN_PAPER in \
         crates/symbolic/tests/table1_static.rs)"
    );
}
