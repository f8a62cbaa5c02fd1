//! Regenerates Fig. 4: top quantity kinds and their top-five units.

fn main() {
    dim_bench::run(|_| print!("{}", dim_bench::render::fig4()));
}
