//! Shared formatting helpers and the paper's reported numbers, used by the
//! per-table/figure harness binaries.

pub mod render;

/// Formats a proportion as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

/// Parses a `--quick` flag from the CLI arguments.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parses the `--obs` flag from the CLI arguments.
pub fn obs_flag() -> bool {
    std::env::args().any(|a| a == "--obs")
}

/// Parses a `--obs-out PATH` flag (where `all_experiments` writes the
/// machine-readable metrics report; default `obs_report.json`).
pub fn obs_out_flag() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--obs-out" {
            return args.next();
        }
    }
    None
}

/// Enables metrics collection when `--obs` was passed. Call at the top of
/// a harness `main`.
pub fn obs_init() {
    if obs_flag() {
        dim_obs::enable();
    }
}

/// When observability is on, prints the human-readable metrics table to
/// **stderr** — stdout must stay byte-identical to the non-`--obs` run so
/// determinism diffs over harness output keep working.
pub fn obs_finish() {
    if dim_obs::enabled() {
        eprint!("{}", dim_obs::snapshot().render_table());
    }
}

/// Parses a `--threads N` flag from the CLI arguments.
pub fn threads_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args.next().and_then(|n| n.parse().ok());
        }
    }
    None
}

/// Parses a `--chaos-seed N` flag (fault-plan seed; default 7).
pub fn chaos_seed_flag() -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--chaos-seed" {
            return args.next().and_then(|n| n.parse().ok()).unwrap_or(7);
        }
    }
    7
}

/// Parses a `--chaos-rate R` flag (fault probability per record; default
/// 0.0, i.e. chaos off). Rate 0 leaves the injector disabled entirely, so
/// `--chaos-rate 0` output is byte-identical to a run with no flag.
pub fn chaos_rate_flag() -> f64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--chaos-rate" {
            return args.next().and_then(|n| n.parse().ok()).unwrap_or(0.0);
        }
    }
    0.0
}

/// Returns the experiment configuration selected by the CLI. `--quick`
/// shrinks datasets and training for fast smoke runs and pins the
/// sequential reference paths; `--threads N` overrides the fan-out width
/// in either mode (results are identical at every width).
pub fn config_from_args() -> dim_core::experiments::ExperimentConfig {
    let mut config = if quick_flag() {
        dim_core::experiments::quick_config()
    } else {
        dim_core::experiments::ExperimentConfig::default()
    };
    if let Some(threads) = threads_flag() {
        config.pipeline.parallelism = dim_par::Parallelism::new(threads);
    }
    config
}

/// Prints a rule line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The paper's Table IV rows: (name, units, kinds, dims, lang, freq).
pub const PAPER_TABLE4: [(&str, &str, &str, &str, &str, &str); 3] = [
    ("UoM", "76", "16", "-", "En", "no"),
    ("WolframAlpha", "540", "173", "63", "En", "no"),
    ("DimUnitKB", "1778", "327", "175", "En&Zh", "yes"),
];

/// The paper's Table VI rows: (name, #num, #units, op buckets).
pub const PAPER_TABLE6: [(&str, usize, usize, [usize; 4]); 4] = [
    ("N-Math23k", 225, 17, [162, 47, 16, 0]),
    ("N-Ape210k", 225, 18, [139, 55, 27, 4]),
    ("Q-Math23k", 225, 35, [108, 86, 24, 7]),
    ("Q-Ape210k", 225, 52, [99, 68, 39, 19]),
];

/// The paper's Table VIII rows: (name, [prec/f1 per category]).
pub const PAPER_TABLE8: [(&str, [(f64, f64); 3]); 2] = [
    ("LLaMa_IFT", [(29.65, 24.01), (20.38, 16.64), (8.94, 6.70)]),
    ("DimPerc", [(71.69, 63.13), (82.82, 77.30), (89.74, 81.31)]),
];

/// The paper's Table IX rows: (name, [N-M23k, N-Ape, Q-M23k, Q-Ape]).
pub const PAPER_TABLE9: [(&str, [f64; 4]); 7] = [
    ("GPT4", [78.22, 65.33, 57.33, 34.67]),
    ("GPT4 + WolframAlpha", [84.44, 67.11, 54.67, 43.55]),
    ("GPT-3.5-turbo", [49.33, 39.56, 29.78, 14.22]),
    ("GPT-3.5-turbo + WolframAlpha", [58.67, 44.89, 30.22, 20.44]),
    ("BertGen", [73.78, 61.78, 14.22, 30.67]),
    ("LLaMa", [78.22, 53.78, 36.44, 18.67]),
    ("DimPerc (Ours)", [80.89, 60.00, 82.67, 50.67]),
];

/// One Table VII row: (name, QE/VE/UE f1, then six tasks' (prec, f1)).
pub type PaperTable7Row = (&'static str, [f64; 3], [(f64, f64); 6]);

/// Selected paper Table VII rows for the comparison footer.
pub const PAPER_TABLE7_KEY_ROWS: [PaperTable7Row; 3] = [
    (
        "GPT-4 (zero-shot)",
        [73.91, 80.59, 80.79],
        [
            (66.67, 39.63),
            (68.89, 55.18),
            (44.44, 34.40),
            (31.11, 14.98),
            (53.33, 31.37),
            (64.45, 52.68),
        ],
    ),
    (
        "LLaMa-2 13B",
        [57.58, 59.09, 58.42],
        [
            (44.44, 39.82),
            (24.44, 25.92),
            (51.11, 36.62),
            (20.00, 19.92),
            (13.34, 5.60),
            (33.33, 21.90),
        ],
    ),
    (
        "DimPerc (Ours)",
        [71.53, 73.61, 82.35],
        [
            (62.81, 62.59),
            (83.03, 66.50),
            (99.11, 99.13),
            (66.33, 66.28),
            (83.93, 67.22),
            (95.54, 95.39),
        ],
    ),
];
