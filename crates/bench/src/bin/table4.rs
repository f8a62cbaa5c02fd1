//! Regenerates Table IV: knowledge-base statistics comparison.

fn main() {
    dim_bench::run(|_| print!("{}", dim_bench::render::table4()));
}
