//! Regenerates Fig. 6: DimPerc accuracy on Q-Ape210k vs augmentation rate η.

fn main() {
    dim_bench::run(|cli| print!("{}", dim_bench::render::fig6(&cli.config())));
}
