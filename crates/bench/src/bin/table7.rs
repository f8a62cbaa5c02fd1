//! Regenerates Table VII: DimEval results across models and settings.

fn main() {
    dim_bench::run(|cli| print!("{}", dim_bench::render::table7(&cli.config())));
}
