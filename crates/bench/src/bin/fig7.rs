//! Regenerates Fig. 7: training curves with different base models and
//! tokenization strategies on Q-Ape210k.

fn main() {
    dim_bench::run(|cli| print!("{}", dim_bench::render::fig7(&cli.config())));
}
