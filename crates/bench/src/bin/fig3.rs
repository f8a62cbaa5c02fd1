//! Regenerates Fig. 3: popular units sorted by the frequency feature.

fn main() {
    dim_bench::run(|_| print!("{}", dim_bench::render::fig3()));
}
