//! Regenerates Table IX: accuracy on N-MWP and Q-MWP.

fn main() {
    dim_bench::run(|cli| print!("{}", dim_bench::render::table9(&cli.config())));
}
