//! `perftest`-style micro-benchmarks on the simulator: latency and
//! bandwidth for READ/WRITE/SEND, pinned vs ODP vs prefetched ODP.
//!
//! ```text
//! cargo run --release -p ibsim-bench --bin ibperf
//! ```

use ibsim_bench::perftest::{read_bw, read_lat, send_lat, write_bw, PerfConfig};
use ibsim_bench::{header, row};

fn main() {
    header("ib_read_lat / ib_send_lat (4 KiB, 1000 iterations)");
    let widths = [18, 44];
    for (name, odp, prefetch) in [
        ("pinned", false, false),
        ("odp", true, false),
        ("odp+prefetch", true, true),
    ] {
        let cfg = PerfConfig {
            size: 4096,
            odp,
            prefetch,
            ..PerfConfig::default()
        };
        let r = read_lat(&cfg);
        println!(
            "{}",
            row(&[format!("read_lat {name}"), r.to_string()], &widths)
        );
        let s = send_lat(&cfg);
        println!(
            "{}",
            row(&[format!("send_lat {name}"), s.to_string()], &widths)
        );
    }

    header("ib_read_bw / ib_write_bw (pinned)");
    println!("size_bytes,read_MiBps,read_Mpps,write_MiBps,write_Mpps");
    for size in [64u32, 1024, 4096, 65536, 1 << 20] {
        let cfg = PerfConfig {
            size,
            iterations: 256,
            ..PerfConfig::default()
        };
        let r = read_bw(&cfg);
        let w = write_bw(&cfg);
        println!(
            "{size},{:.1},{:.4},{:.1},{:.4}",
            r.mib_per_sec(),
            r.mpps(),
            w.mib_per_sec(),
            w.mpps()
        );
    }
    println!(
        "\n(the ODP rows show what perftest alone could not: the fault tail\n\
         on first touch, hidden entirely by prefetch — and none of the\n\
         §V/§VI pitfalls, which need the ibsim-bench fig* binaries.)"
    );
}
