//! Regenerates Table VI: statistics of the MWP evaluation datasets.

fn main() {
    dim_bench::run(|cli| print!("{}", dim_bench::render::table6(&cli.config())));
}
