//! Minimal flag parsing shared by the experiment binaries: one flag loop
//! behind [`CommonArgs`] (figure and ablation bins) and [`PerfArgs`]
//! (the `perf_*` bins).

/// Why a command line was not accepted.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A flag the binary does not take.
    Unknown(String),
    /// A flag given without its value.
    MissingValue(String),
    /// A flag whose value did not parse.
    BadValue(String, String),
}

/// Parses the next of `args` as the value of `flag`.
fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, ArgError>
where
    T::Err: std::fmt::Display,
{
    let raw = args.next().ok_or_else(|| ArgError::MissingValue(flag.to_string()))?;
    raw.parse().map_err(|e: T::Err| ArgError::BadValue(flag.to_string(), e.to_string()))
}

/// The one flag loop: hands every flag in `args` to `on_flag`, which
/// applies it (pulling its value with [`flag_value`]) and returns
/// `Ok(true)`, or returns `Ok(false)` for a flag it does not take.
/// `--help`/`-h` and unknown flags end the loop.
fn parse_flags<I: Iterator<Item = String>>(
    mut args: I,
    mut on_flag: impl FnMut(&str, &mut I) -> Result<bool, ArgError>,
) -> Result<(), ArgError> {
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(ArgError::Help);
        }
        if !on_flag(&flag, &mut args)? {
            return Err(ArgError::Unknown(flag));
        }
    }
    Ok(())
}

/// Unwraps a parse result, or prints `usage` and exits 0 for `--help`,
/// or prints the error and exits 2.
fn or_exit<T>(parsed: Result<T, ArgError>, usage: &str) -> T {
    parsed.unwrap_or_else(|err| {
        match err {
            ArgError::Help => {
                eprintln!("options: {usage}");
                std::process::exit(0);
            }
            ArgError::Unknown(flag) => eprintln!("unknown flag {flag}; see --help"),
            ArgError::MissingValue(flag) => eprintln!("{flag} needs a value"),
            ArgError::BadValue(flag, e) => eprintln!("bad value for {flag}: {e}"),
        }
        std::process::exit(2);
    })
}

/// Common experiment options.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Dataset scale factor in `(0, 1]`: each dataset uses
    /// `ceil(scale * paper_size)` points.
    pub scale: f64,
    /// Timing repetitions per configuration (the paper used 25).
    pub iters: usize,
    /// SSJ link budget before switching to estimate mode.
    pub ssj_budget: u64,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs { scale: 1.0, iters: 3, ssj_budget: 300_000_000 }
    }
}

impl CommonArgs {
    /// Parses `--scale <f>`, `--iters <n>`, `--ssj-budget <n>` and
    /// `--quick` (shorthand for `--scale 0.1 --iters 1`) from the process
    /// arguments. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        let usage = "--scale <f in (0,1]>  --iters <n>  --ssj-budget <links>  --quick";
        let out = or_exit(Self::parse_from(std::env::args().skip(1)), usage);
        assert!(out.scale > 0.0 && out.scale <= 1.0, "--scale must be in (0, 1]");
        assert!(out.iters >= 1, "--iters must be at least 1");
        out
    }

    /// [`CommonArgs::parse`] over `args`, without exiting.
    pub fn parse_from(args: impl Iterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = CommonArgs::default();
        parse_flags(args, |flag, v| {
            match flag {
                "--scale" => out.scale = flag_value(v, flag)?,
                "--iters" => out.iters = flag_value(v, flag)?,
                "--ssj-budget" => out.ssj_budget = flag_value(v, flag)?,
                "--quick" => {
                    out.scale = 0.1;
                    out.iters = 1;
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(out)
    }

    /// Applies the scale factor to a paper dataset size.
    pub fn scaled(&self, paper_size: usize) -> usize {
        ((self.scale * paper_size as f64).ceil() as usize).max(1)
    }
}

/// The three `perf_*` bins, each with its own flags and defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerfBin {
    /// `perf_baseline`: the thread grid (`BENCH_parallel.json`).
    Baseline,
    /// `perf_kernels`: leaf probe, merge gap, row emission
    /// (`BENCH_kernels.json`).
    Kernels,
    /// `perf_outofcore`: the buffer-pool curve (`BENCH_outofcore.json`).
    OutOfCore,
}

impl PerfBin {
    /// The binary's name, as recorded in its report's `bench` field.
    pub fn name(self) -> &'static str {
        ["perf_baseline", "perf_kernels", "perf_outofcore"][self as usize]
    }
}

/// Each [`PerfBin`]'s `--help` text.
const PERF_USAGE: [&str; 3] = [
    "--smoke  --out <file>  --n <points>  --iters <n>  --threads <n>",
    "--smoke  --out <file>  --n <points>  --iters <n>",
    "--smoke  --out <file>  --n <points>  --eps <E>  --data-dir <dir>",
];

/// Options of the `perf_*` bins. Every bin takes `--smoke`, `--out` and
/// `--n`; `--iters` all but `perf_outofcore` (fixed at 3 rounds),
/// `--threads` only `perf_baseline`, `--eps` and `--data-dir` only
/// `perf_outofcore`. `--smoke` shrinks `n` and runs one round.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfArgs {
    /// CI-sized run.
    pub smoke: bool,
    /// Report path.
    pub out: String,
    /// Points per workload.
    pub n: usize,
    /// Interleaved timing rounds.
    pub iters: usize,
    /// Widest worker count of the thread grid (`perf_baseline`).
    pub threads: usize,
    /// Query range (`perf_outofcore`).
    pub eps: f64,
    /// Directory of the page file (`perf_outofcore`; a temp dir if unset).
    pub data_dir: Option<String>,
}

impl PerfArgs {
    /// `bin`'s defaults, before any flag.
    fn defaults(bin: PerfBin) -> PerfArgs {
        let (out, n) = [
            ("BENCH_parallel.json", 20_000),
            ("BENCH_kernels.json", 20_000),
            ("BENCH_outofcore.json", csj_data::roads::PACIFIC_NW_SIZE),
        ][bin as usize];
        PerfArgs {
            smoke: false,
            out: out.to_string(),
            n,
            iters: 3,
            threads: 8,
            eps: 0.0005,
            data_dir: None,
        }
    }

    /// Parses `bin`'s flags from the process arguments and logs them;
    /// `--help` exits 0 and a bad command line exits 2.
    pub fn parse(bin: PerfBin) -> PerfArgs {
        let args =
            or_exit(Self::parse_from(bin, std::env::args().skip(1)), PERF_USAGE[bin as usize]);
        eprintln!("# {}: {args:?}", bin.name());
        args
    }

    /// [`PerfArgs::parse`] over `args`, without exiting.
    pub fn parse_from(bin: PerfBin, args: impl Iterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = PerfArgs::defaults(bin);
        let ooc = bin == PerfBin::OutOfCore;
        parse_flags(args, |flag, v| {
            match flag {
                "--smoke" => {
                    out.smoke = true;
                    out.n = if ooc { 50_000 } else { 2_000 };
                    out.iters = 1;
                }
                "--out" => out.out = flag_value(v, flag)?,
                "--n" => out.n = flag_value(v, flag)?,
                "--iters" if !ooc => out.iters = flag_value(v, flag)?,
                "--threads" if bin == PerfBin::Baseline => out.threads = flag_value(v, flag)?,
                "--eps" if ooc => out.eps = flag_value(v, flag)?,
                "--data-dir" if ooc => out.data_dir = Some(flag_value(v, flag)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = CommonArgs::default();
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.iters, 3);
    }

    #[test]
    fn scaled_sizes() {
        let a = CommonArgs { scale: 0.1, ..Default::default() };
        assert_eq!(a.scaled(27_000), 2700);
        assert_eq!(a.scaled(5), 1);
        let a = CommonArgs { scale: 1.0, ..Default::default() };
        assert_eq!(a.scaled(27_000), 27_000);
    }
}
