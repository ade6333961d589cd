//! Experiment A2: Lemma 1 — DMM cycle counts of the transpose algorithms
//! vs the closed forms.
//!
//! Usage: `cargo run -p rap-bench --bin lemma1 --release`

use rap_bench::experiments::lemma1;
use rap_bench::output;
use rap_bench::table::TextTable;

fn main() {
    rap_bench::exit_on_error("lemma1", run());
}

fn run() -> Result<(), String> {
    println!("A2 — Lemma 1: DMM cycles of CRSW/SRCW/DRDW under RAW\n");
    let _failpoints = rap_bench::failpoints_from_env()?;
    let rows = lemma1::run(&[4, 8, 16, 32, 64], &[1, 2, 4, 8, 16, 32, 64]);

    let mut t = TextTable::new([
        "w",
        "l",
        "CRSW",
        "SRCW",
        "DRDW",
        "w²+w+l-1",
        "2w+l-1",
        "match",
    ]);
    for r in &rows {
        let ok = r.crsw == r.crsw_formula && r.srcw == r.crsw_formula && r.drdw == r.drdw_formula;
        t.row([
            r.w.to_string(),
            r.l.to_string(),
            r.crsw.to_string(),
            r.srcw.to_string(),
            r.drdw.to_string(),
            r.crsw_formula.to_string(),
            r.drdw_formula.to_string(),
            if ok { "exact" } else { "MISMATCH" }.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Lemma 1: CRSW/SRCW are Θ(w²+l), DRDW is Θ(w+l); the simulator \
         matches the closed forms cycle-exactly.\n"
    );

    let record = lemma1::to_record(&rows);
    output::publish_record(&record)
}
