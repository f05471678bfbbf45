//! The repository benchmark: five workloads, end-to-end metrics with
//! regression bounds, and a per-layer trace taken from outside the
//! simulator. See `README.md` in this directory and `BENCHMARK.json` at
//! the repository root.
//!
//! ```text
//! ibsim-benchmark run     [--seed N] [--seconds S] [--quick] [--out F]
//! ibsim-benchmark trace   [--seed N] [--quick] [--out F]
//! ibsim-benchmark compare A.json B.json [--agree]
//! ibsim-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form measures one workload in this process and prints one
//! JSON result object as its last line; `run` and `trace` start it once
//! per workload (one process each, so peak memory is per workload) and
//! collect the results.

mod alloc;
mod compare;
mod digest;
mod json;
mod measure;
mod meta;
mod replay;
mod spec;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage:
  ibsim-benchmark run     [--seed N] [--seconds S] [--quick] [--out FILE]
      every workload with tracing off: checks outputs, prints every
      end-to-end metric (median, quartiles, min/max, samples)
  ibsim-benchmark trace   [--seed N] [--quick] [--out FILE]
      the separate traced run: per-layer metrics and the span roll-up
  ibsim-benchmark compare A.json B.json [--agree]
      per workload x metric verdict; --agree fails unless all agree
  ibsim-benchmark spec
      prints BENCHMARK.json
  ibsim-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      one workload in this process; last line of output is the result
workloads: flood stream wide sweep shuffle";

/// `--key value` pairs and bare `--flag`s, in any order, plus positional
/// arguments.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
    /// Arguments that are not flags.
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `args`; `bare` lists the flags that take no value.
    pub fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if bare.contains(&key) => flags.pairs.push((key.to_owned(), None)),
                Some(key) => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{key} needs a value"))?
                        .clone();
                    flags.pairs.push((key.to_owned(), Some(value)));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    /// True when the bare flag `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `--key` as a whole number, or `default`.
    pub fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} wants a whole number, got {v:?}")),
        }
    }

    /// Rejects flags outside `known`.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => measure::orchestrate(measure::Kind::Run, &args[1..]),
        Some("trace") => measure::orchestrate(measure::Kind::Trace, &args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some(first) if first.starts_with("--") && first != "--help" => measure::child(&args),
        _ => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn flags_parse_pairs_bare_flags_and_positionals() {
        let f = Flags::parse(
            &args(&["a.json", "--seed", "7", "--quick", "b.json", "--seed", "9"]),
            &["quick"],
        )
        .expect("parses");
        assert_eq!(f.positional, ["a.json", "b.json"]);
        assert!(f.has("quick") && !f.has("agree"));
        assert_eq!(f.number("seed", 0), Ok(9), "the last value wins");
        assert_eq!(f.number("seconds", 15), Ok(15));
        assert!(f.only(&["seed", "quick"]).is_ok());
        assert!(f.only(&["seed"]).is_err());
    }

    #[test]
    fn flags_reject_a_missing_value_and_a_bad_number() {
        assert!(Flags::parse(&args(&["--seed"]), &[]).is_err());
        let f = Flags::parse(&args(&["--seed", "x"]), &[]).expect("parses");
        assert!(f.number("seed", 0).is_err());
    }
}
