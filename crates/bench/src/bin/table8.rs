//! Regenerates Table VIII: DimPerc vs the base model on DimEval categories.

fn main() {
    dim_bench::run(|cli| print!("{}", dim_bench::render::table8(&cli.config())));
}
