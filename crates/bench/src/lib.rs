//! Shared formatting helpers and the paper's reported numbers, used by the
//! per-table/figure harness binaries.

pub mod render;

/// Formats a proportion as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}", v * 100.0)
}

/// The harness flags every table/figure binary shares.
#[derive(Debug, PartialEq)]
pub struct Cli {
    /// `--quick`: shrink datasets and training for a fast smoke run.
    pub quick: bool,
    /// `--obs`: print the metrics table to stderr (metrics are always
    /// recorded; this only chooses whether they are reported).
    pub obs: bool,
    /// `--obs-out PATH`: where `all_experiments` writes its metrics report.
    /// Implies `--obs`.
    pub obs_out: Option<String>,
    /// `--threads N`: the fan-out width (0 clamps to 1).
    pub threads: Option<usize>,
    /// `--chaos-seed N`: the fault-plan seed (default 7).
    pub chaos_seed: u64,
    /// `--chaos-rate R`: fault probability per record (default 0, chaos
    /// off, so `--chaos-rate 0` is byte-identical to no flag).
    pub chaos_rate: f64,
}

const USAGE: &str =
    "[--quick] [--obs] [--obs-out PATH] [--threads N] [--chaos-seed N] [--chaos-rate R]";

/// Parses a flag's value. A value that does not parse as `T` is an error:
/// falling back to the default would run an experiment nobody asked for
/// (`--threads two` running at the default width).
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

/// Parses the harness flags from `args` (the program name first). Every
/// argument must be a flag named in [`USAGE`] or that flag's value: a
/// misspelt flag (`--thread 4`) is an error, not a silent default run.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        quick: false,
        obs: false,
        obs_out: None,
        threads: None,
        chaos_seed: 7,
        chaos_rate: 0.0,
    };
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => cli.quick = true,
            "--obs" => cli.obs = true,
            "--obs-out" => {
                cli.obs_out = Some(value()?.clone());
                cli.obs = true;
            }
            "--threads" => cli.threads = Some(parse_value(flag, value()?)?),
            "--chaos-seed" => cli.chaos_seed = parse_value(flag, value()?)?,
            "--chaos-rate" => cli.chaos_rate = parse_value(flag, value()?)?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(cli)
}

/// The harness flags of this process. An unknown or malformed flag prints
/// the usage and exits with status 2.
pub fn cli() -> Cli {
    let args: Vec<String> = std::env::args().collect();
    parse_cli(&args).unwrap_or_else(|e| {
        let bin = args.first().map_or("dim-bench", String::as_str);
        eprintln!("{bin}: {e}\nusage: {bin} {USAGE}");
        std::process::exit(2);
    })
}

impl Cli {
    /// The experiment configuration these flags select. `--quick` shrinks
    /// datasets and training for fast smoke runs and pins the sequential
    /// reference paths; `--threads N` overrides the fan-out width in either
    /// mode (results are identical at every width).
    pub fn config(&self) -> dim_core::experiments::ExperimentConfig {
        let mut config = if self.quick {
            dim_core::experiments::quick_config()
        } else {
            dim_core::experiments::ExperimentConfig::default()
        };
        if let Some(threads) = self.threads {
            config.pipeline.parallelism = dim_par::Parallelism::new(threads);
        }
        config
    }
}

/// The `main` of a harness binary: checks the flags before any work, runs
/// `body` (which prints the results to stdout) and, with `--obs`, prints
/// the metrics table to **stderr** — stdout stays byte-identical to a run
/// without `--obs`, so determinism diffs over harness output keep working.
pub fn run(body: impl FnOnce(&Cli)) {
    let cli = cli();
    body(&cli);
    if cli.obs {
        eprint!("{}", dim_obs::snapshot().render_table());
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("table4").chain(list.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_absent_ones_take_their_defaults() {
        let defaults = parse_cli(&args(&[])).unwrap();
        assert_eq!((defaults.quick, defaults.obs, &defaults.obs_out), (false, false, &None));
        assert_eq!((defaults.threads, defaults.chaos_seed, defaults.chaos_rate), (None, 7, 0.0));
        assert_eq!(parse_cli(&args(&["--chaos-rate", "0"])).unwrap(), defaults);
        let cli = parse_cli(&args(&[
            "--quick", "--threads", "4", "--obs", "--obs-out", "o.json",
            "--chaos-seed", "5", "--chaos-rate", "0.25",
        ]))
        .unwrap();
        assert!(cli.quick && cli.obs);
        assert_eq!((cli.obs_out.as_deref(), cli.threads), (Some("o.json"), Some(4)));
        assert_eq!((cli.chaos_seed, cli.chaos_rate), (5, 0.25));
    }

    #[test]
    fn obs_out_alone_turns_the_report_on() {
        let cli = parse_cli(&args(&["--quick", "--obs-out", "o.json"])).unwrap();
        assert!(cli.obs, "--obs-out without --obs must still write the report");
        assert_eq!(cli.obs_out.as_deref(), Some("o.json"));
    }

    #[test]
    fn malformed_or_missing_values_are_errors() {
        for bad in [
            &["--threads", "two"][..],
            &["--threads", "-1"],
            &["--threads"],
            &["--chaos-seed", "seven"],
            &["--chaos-rate", "often"],
            &["--obs-out"],
        ] {
            let err = parse_cli(&args(bad)).err();
            assert!(err.as_deref().is_some_and(|e| e.starts_with(bad[0])), "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn unknown_arguments_are_errors() {
        for (bad, unknown) in [
            (&["--quick", "--thread", "4"][..], "--thread"),
            (&["--quik"], "--quik"),
            (&["--quick", "4"], "4"),
            (&["--threads", "4", "--obs", "extra"], "extra"),
        ] {
            let err = parse_cli(&args(bad)).err();
            assert_eq!(err, Some(format!("unknown argument `{unknown}`")), "{bad:?}");
        }
    }
}
