//! Regenerates the section 6.4 area report.
fn main() {
    scu_bench::reject_args();
    print!("{}", scu_bench::experiments::area::render());
}
