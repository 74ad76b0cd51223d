//! `csj` — the compact-similarity-joins command line.
//!
//! ```text
//! csj generate <dataset> --n <N> [--seed <S>] --out <file>
//! csj analyze  <points-file> [--dim 2|3]
//! csj join     <points-file> --eps <E> [--algo ssj|ncsj|csj] [--window g]
//!              [--metric l2|l1|linf] [--tree rstar|rtree|mtree]
//!              [--bulk str|hilbert|omt|none] [--dim 2|3] [--out <file>]
//!              [--max-links <N>] [--max-bytes <N>] [--deadline <secs>]
//!              [--threads <N>|auto]
//! csj verify   <points-file> --eps <E> [--dim 2|3]
//! csj expand   <output-file>
//! csj shard-join <points-file> --eps <E> [--shards <N>] [--algo ...]
//!              [--max-attempts <N>] [--task-deadline <secs>]
//!              [--speculate-after <secs>] [--fault-plan <plan>]
//!              [--workers process|thread] [--format rows|canonical]
//! csj shard-worker            (internal: spoken to over stdin/stdout)
//! ```
//!
//! Point files are whitespace-separated coordinates, one point per line
//! (`#` comments allowed); join output files use the paper's zero-padded
//! id format. Argument parsing is hand-rolled to keep the dependency
//! footprint at zero beyond the workspace crates.
//!
//! Failures exit with a class-specific code (usage 2, input 3, storage 4,
//! index 5, verification 6, shard 7) — see `error.rs`.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod commands;
mod error;
mod opts;

use std::process::ExitCode;

use error::CliError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        print_usage();
        return Ok(());
    };
    match command.as_str() {
        "generate" => commands::generate(rest),
        "index" => commands::index(rest),
        "analyze" => commands::analyze(rest),
        "join" => commands::join(rest),
        "join2" => commands::join2(rest),
        "verify" => commands::verify(rest),
        "expand" => commands::expand(rest),
        "shard-join" => commands::shard_join(rest),
        "shard-worker" => commands::shard_worker(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command {other:?}; see `csj help`"))),
    }
}

fn print_usage() {
    eprintln!(
        "csj — compact similarity joins (ICDE 2008 reproduction)

commands:
  generate <dataset> --n <N> [--seed <S>] --out <file>
      datasets: uniform2d uniform3d sierpinski2d sierpinski3d clusters2d
                roads mg-county lb-county pacific-nw
  analyze <points-file> [--dim 2|3]
      bounds, density map, fractal dimensions (D0, D2)
  index <points-file> --out <index-file> [--bulk str|hilbert|omt|none] [--dim 2|3]
      build an R*-tree once and persist it (reload with join --index)
  join <points-file> --eps <E> [--algo ssj|ncsj|csj] [--window <g>]
       [--metric l2|l1|linf] [--tree rstar|rtree|mtree]
       [--bulk str|hilbert|omt|none] [--dim 2|3] [--out <file>]
       [--max-links <N>] [--max-bytes <N>] [--deadline <secs>]
       [--threads <N>|auto] [--data-dir <dir>] [--buffer-pages <N>]
      run a similarity self-join; stats go to stderr, rows to --out/stdout.
      --data-dir runs out-of-core: the R*-tree is written to real disk
      pages in <dir>/tree.pages and the join touches at most
      --buffer-pages (default 256) resident nodes plus 32 pages of
      read-ahead; rows are bit-identical to the in-memory join.
      --threads runs the parallel join (auto = one worker per core); it
      writes the same bytes as the sequential join at any thread count.
      budget flags stop the run early at a task boundary: output stays a
      lossless join over the processed region and stderr reports the
      completed fraction plus extrapolated totals (partial results exit 0)
  join --index <index-file> --eps <E> [--algo ...] [--dim 2|3] [--out <file>]
      same, over a persisted index instead of raw points
  join2 <left-file> <right-file> --eps <E> [--mode standard|compact|windowed]
        [--window <g>] [--metric l2|l1|linf] [--dim 2|3] [--out <file>]
      spatial join of two datasets (links pair a left with a right record)
  verify <points-file> --eps <E> [--dim 2|3]
      run CSJ(10) and machine-check Theorems 1 & 2 against brute force
  expand <output-file>
      expand a compact join output back into individual links
  shard-join <points-file> --eps <E> [--algo ssj|ncsj|csj] [--window <g>]
             [--metric l2|l1|linf] [--dim 2|3] [--out <file>]
             [--shards <N>] [--max-attempts <N>] [--task-deadline <secs>]
             [--speculate-after <secs>] [--heartbeat-ms <N>]
             [--fault-plan <plan>] [--workers process|thread]
             [--format rows|canonical]
      fault-tolerant multi-process join: ε-strip shards run in worker
      processes under a supervisor with heartbeats, bounded retries,
      straggler speculation and adaptive re-split. Shards lost beyond
      the retry budget degrade the run to a partial result (exit 0)
      instead of failing it. --fault-plan injects deterministic worker
      faults, e.g. 'kill:0@1;delay:1@1=300;garble:2@2;stall:1.0@1'.
      --format canonical emits the expanded link set as sorted 'a b'
      lines (identical to the sequential join's when the run completes)
  shard-worker
      internal: run one shard task, speaking the checksummed frame
      protocol on stdin/stdout (launched by shard-join, not by hand)

exit codes: 0 ok (including budget-partial and shard-partial results),
2 usage, 3 input, 4 storage, 5 index, 6 verification, 7 shard"
    );
}
