//! Runs every table/figure harness in sequence, in one process (pass
//! `--quick` for a fast pass). Running in-process — rather than spawning
//! the per-table binaries — lets one obs registry observe the whole suite:
//! with `--obs`, a machine-readable metrics report is written to
//! `obs_report.json` (or `--obs-out PATH`) and the human table goes to
//! stderr. stdout is byte-identical to the old spawn-per-binary harness.

use dim_bench::render;

type Stage<'a> = (&'a str, Box<dyn Fn() -> String>);

fn main() {
    dim_bench::obs_init();
    let cfg = dim_bench::config_from_args();
    let stages: [Stage; 9] = [
        ("table4", Box::new(render::table4)),
        ("fig3", Box::new(render::fig3)),
        ("fig4", Box::new(render::fig4)),
        ("table6", Box::new(move || render::table6(&cfg))),
        ("table7", Box::new(move || render::table7(&cfg))),
        ("table8", Box::new(move || render::table8(&cfg))),
        ("table9", Box::new(move || render::table9(&cfg))),
        ("fig6", Box::new(move || render::fig6(&cfg))),
        ("fig7", Box::new(move || render::fig7(&cfg))),
    ];
    for (name, run) in stages {
        println!("\n================= {name} =================\n");
        print!("{}", run());
    }
    // Opt-in chaos stage: `--chaos-rate R` (R > 0) appends a degraded-mode
    // pipeline run under a deterministic fault plan. With rate 0 (the
    // default) nothing is printed and the injector stays disabled, so
    // stdout is byte-identical to a run without the flags.
    let cli = dim_bench::cli();
    if cli.chaos_rate > 0.0 {
        println!("\n================= chaos =================\n");
        print!("{}", render::chaos_report(&cfg, cli.chaos_seed, cli.chaos_rate));
    }
    if dim_obs::enabled() {
        let path = cli.obs_out.unwrap_or_else(|| "obs_report.json".to_string());
        std::fs::write(&path, dim_obs::snapshot().to_json()).expect("write obs report");
        eprintln!("obs: report written to {path}");
    }
    dim_bench::obs_finish();
}
