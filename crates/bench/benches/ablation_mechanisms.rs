//! Extension study: ablates UTIL-BP's mechanisms —
//! hysteresis (`g*`), the `α`/`β` special cases, per-movement pressure,
//! and adaptivity itself (fixed-length variant) — on Pattern I.

fn main() {
    let opts = utilbp_bench::bench_options();
    eprintln!(
        "[ablation] backend={} hour={} ticks",
        opts.backend,
        opts.hour.count()
    );
    let result = utilbp_experiments::ablation(&opts, utilbp_netgen::Pattern::I);
    println!("{}", result.render());
}
