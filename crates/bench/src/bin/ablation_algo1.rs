//! Ablation of Algorithm 1's masked-LM filtering stage: annotation
//! precision with and without the filter, and the review workload.

fn main() {
    dim_bench::run(|_| print!("{}", dim_bench::render::ablation_algo1()));
}
