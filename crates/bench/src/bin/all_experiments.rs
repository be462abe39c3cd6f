//! Runs every experiment in sequence (the EXPERIMENTS.md generator).
fn main() {
    let scale = aplus_bench::datasets::scale();
    for (name, run) in [
        (
            "table1",
            aplus_bench::tables::run_table1 as fn(usize) -> aplus_bench::Reporter,
        ),
        ("table2", aplus_bench::tables::run_table2),
        ("table3", aplus_bench::tables::run_table3),
        ("table4", aplus_bench::tables::run_table4),
        ("table5", aplus_bench::tables::run_table5),
        ("table6", aplus_bench::tables::run_table6),
        ("ablation", aplus_bench::tables::run_ablation),
    ] {
        eprintln!(">>> running {name}");
        let r = run(scale);
        let baseline = match name {
            "table6" => "Ds",
            "ablation" => "offset-lists",
            "table1" => "scaled",
            _ => "D",
        };
        println!("{}", r.render(baseline));
        r.write_json();
    }
}
