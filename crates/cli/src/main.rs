//! `starling` — static analyzer and runtime for Starburst-style database
//! production rules.
//!
//! ```text
//! starling analyze <file> [--protect t1,t2]...   full analysis report
//! starling graph <file> [--dot]                  triggering graph
//! starling explore <file> [--max-states N]       execution-graph oracle
//! starling explain <file> [rule]                 signature, or divergence witness
//! starling run <file>                            execute with rule processing
//! starling compare <file>                        baseline comparison (Sec. 9)
//! starling serve [--addr H:P] [--workers N]      multi-session server
//! starling client [--addr H:P]                   stdin/stdout protocol client
//! starling recover <dir> [--verify]              inspect/verify durable stores
//! starling fuzz [--seed N] [--cases N]           differential fuzz campaign
//! starling experiments [e1 … e14] [--check]      the reproduction's tables
//! ```
//!
//! Exit codes: `0` success (including definitive negative verdicts), `1`
//! usage or script error (or `experiments --check` found the committed
//! tables stale), `2` transaction aborted, `3` inconclusive (a
//! resource budget ran out before a verdict), `4` the fuzz harness found
//! oracle disagreements.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use starling_cli::{
    cmd_analyze, cmd_compare, cmd_explore, cmd_graph, cmd_run, CmdOutput, CmdStatus,
};
use starling_engine::Budget;

const USAGE: &str = "\
starling — analysis of database production rules (SIGMOD '92 reproduction)

USAGE:
    starling <COMMAND> <FILE> [OPTIONS]

COMMANDS:
    analyze    Termination, confluence, and observable-determinism report
    graph      Print the triggering graph (--dot for GraphViz)
    explore    Exhaustive execution-graph oracle over the script's
               user transition (--max-states N, default 20000)
    explain    With a rule name: that rule's Section 3 signature and
               interactions (starling explain <file> <rule>). Without one:
               explore the script's user transition with provenance tracing
               and, if the oracle finds divergent final states, print a
               minimal replay-verified divergence witness (--json,
               --max-states N, --timeout MS)
    run        Execute the script with rule processing at commit
    compare    Compare against HH91/ZH90/Ras90-analog criteria
    serve      Serve concurrent sessions over newline-delimited JSON
               (no file argument; --addr HOST:PORT, default 127.0.0.1:7878,
               port 0 picks an ephemeral port; --data-dir DIR enables durable
               named stores — sessions bind via load's \"persist\" parameter —
               with --sync always|batch, default always)
    client     Connect to a server: one JSON request per stdin line, one
               response per stdout line (--addr HOST:PORT)
    recover    Open the durable store(s) under <dir> (a store or a server
               data dir) and report what crash recovery yields; --verify
               additionally reloads each store through a full engine session
               and cross-checks digests
    fuzz       Differential fuzz campaign: random rule programs cross-checked
               through four oracles (analyzer-vs-oracle, plan-vs-interp,
               server-vs-CLI, in-memory-vs-durable); disagreements are
               shrunk and pinned (no file argument; --seed N, --cases N,
               --budget N per-case state bound, --corpus-dir DIR, --mutate
               NAME)
    experiments
               Regenerate the reproduction's tables (EXPERIMENTS.md), all or
               those named (e1 … e14; e2, e3 and e5 share one). --check diffs
               them against ./experiments_output.txt, E9's wall-clock cells
               masked (no file argument)

OPTIONS:
    --protect t1,t2           (analyze) also check partial confluence w.r.t.
                              the listed tables; repeatable
    --dot                     (graph/explore) emit GraphViz DOT
    --max-states N            (explore) state budget, default 20000
    --max-considerations N    (run) rule-consideration budget, default 10000
    --timeout MS              (explore/run) wall-clock budget in milliseconds
    --refine                  (analyze) enable the Section 9 predicate-level
                              commutativity refinement
    --json                    (analyze/explore/explain) machine-readable
                              output: one JSON object, same shape as the
                              server protocol
    --addr HOST:PORT          (serve/client) listen/connect address,
                              default 127.0.0.1:7878
    --data-dir DIR            (serve) durable data directory: every committed
                              session bound to a store is recoverable after a
                              crash (WAL + snapshots; created if missing)
    --sync always|batch       (serve) WAL fsync policy, default always
                              (batch trades the fsync-per-commit for one
                              every 32 commits plus snapshot points)
    --workers N               (serve) worker threads executing requests,
                              default 0 = one per available core (min 2)
    --max-inflight N          (serve) admission cap: requests admitted but
                              not yet completed across all sessions; beyond
                              it requests are refused with an `overloaded`
                              error (default 4096, 0 = unlimited)
    --verify                  (recover) reload stores through a full engine
                              session and cross-check digests
    --seed N                  (fuzz) campaign seed, default 0; same seed ⇒
                              byte-identical report
    --cases N                 (fuzz) number of generated programs, default 500
    --budget N                (fuzz) per-case exploration state bound,
                              default 300
    --max-rows N              (fuzz) seed rows generated per table, default 3
    --rules N                 (fuzz) generate exactly N rules per program
                              (tables scale along; seed rows drop to 0) —
                              the 1k-10k-rule analysis-scale shape
                              (the exploration row budget scales with it)
    --corpus-dir DIR          (fuzz) where shrunk reproducers are written;
                              default tests/fuzz_corpus when it exists
    --mutate NAME             (fuzz) inject an analyzer bug to self-test the
                              harness: certify-termination,
                              certify-confluence, certify-observable

EXIT CODES:
    0    success (definitive verdicts, including negative ones)
    1    usage or script error; experiments --check: tables are stale
    2    transaction aborted (database restored to the snapshot)
    3    inconclusive: a budget (--max-states / --max-considerations /
         --timeout) ran out before a verdict
    4    fuzz: oracle disagreement(s) found (reproducers in the corpus dir)
";

/// Exit code for usage/script errors.
const EXIT_ERROR: u8 = 1;
/// Exit code for an aborted transaction.
const EXIT_ABORTED: u8 = 2;
/// Exit code for budget-exhausted, inconclusive results.
const EXIT_INCONCLUSIVE: u8 = 3;
/// Exit code for fuzz-harness oracle disagreements.
const EXIT_FINDINGS: u8 = 4;

fn main() -> ExitCode {
    // Panics are bugs (errors travel through Result): keep the one-line
    // pointer so reports reach the tracker instead of dying in a backtrace.
    // Writes ignore failure — a closed stderr (`starling ... 2>&1 | head`)
    // must not turn a report into a panic-in-panic abort.
    std::panic::set_hook(Box::new(|info| {
        let _ = writeln!(
            std::io::stderr(),
            "starling internal error: {info}\n\
             this is a bug — please report it at \
             https://github.com/starling-db/starling/issues with the command \
             line and script that triggered it"
        );
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            let _ = write!(std::io::stdout(), "{}", out.text);
            match out.status {
                CmdStatus::Ok => ExitCode::SUCCESS,
                CmdStatus::Aborted => ExitCode::from(EXIT_ABORTED),
                CmdStatus::Inconclusive => ExitCode::from(EXIT_INCONCLUSIVE),
                CmdStatus::Findings => ExitCode::from(EXIT_FINDINGS),
                CmdStatus::Stale => ExitCode::from(EXIT_ERROR),
            }
        }
        Err(Failure::Usage(msg)) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}\n\n{USAGE}");
            ExitCode::from(EXIT_ERROR)
        }
        Err(Failure::Failed(msg)) => {
            let _ = writeln!(std::io::stderr(), "error: {msg}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

/// Why a command did not run to an answer. Only a malformed command line
/// prints the usage text; a script the command refused does not.
enum Failure {
    /// A missing command or file, an unknown option, a bad flag value.
    Usage(String),
    /// Anything after the command line was understood.
    Failed(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_owned())
    }
}

/// A failure after the command line was understood.
fn failed(e: impl std::fmt::Display) -> Failure {
    Failure::Failed(e.to_string())
}

fn run(args: &[String]) -> Result<CmdOutput, Failure> {
    let command = args.first().ok_or("missing command")?;
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(CmdOutput {
            text: USAGE.to_owned(),
            status: CmdStatus::Ok,
        });
    }
    if command == "serve" || command == "client" {
        return serve_or_client(command, &args[1..]);
    }
    if command == "fuzz" {
        return fuzz(&args[1..]);
    }
    if command == "recover" {
        return recover(&args[1..]);
    }
    if command == "experiments" {
        let ids: Vec<&str> = args[1..].iter().map(String::as_str).collect();
        return Ok(starling_cli::experiments::cmd_experiments(&ids)?);
    }
    let file = args.get(1).ok_or("missing script file")?;
    let src =
        std::fs::read_to_string(file).map_err(|e| failed(format!("cannot read `{file}`: {e}")))?;

    let mut rule_arg: Option<String> = None;
    let mut protect: Vec<Vec<String>> = Vec::new();
    let mut dot = false;
    let mut refine = false;
    let mut json = false;
    let mut budget = Budget::default();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--protect" => {
                let v = args.get(i + 1).ok_or("--protect needs a table list")?;
                protect.push(v.split(',').map(|s| s.trim().to_owned()).collect());
                i += 2;
            }
            "--dot" => {
                dot = true;
                i += 1;
            }
            "--refine" => {
                refine = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--max-states" => budget.max_states = value(args, &mut i, "a number")?,
            "--max-considerations" => budget.max_considerations = value(args, &mut i, "a number")?,
            "--timeout" => {
                budget.deadline = Some(Duration::from_millis(value(args, &mut i, "milliseconds")?));
            }
            other if command == "explain" && rule_arg.is_none() => {
                rule_arg = Some(other.to_owned());
                i += 1;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }

    let result = match command.as_str() {
        "analyze" => cmd_analyze(&src, &protect, refine, json).map(|text| CmdOutput {
            text,
            status: CmdStatus::Ok,
        }),
        "graph" => cmd_graph(&src, dot).map(|text| CmdOutput {
            text,
            status: CmdStatus::Ok,
        }),
        "explore" => cmd_explore(&src, &budget, dot, json),
        "explain" => match rule_arg {
            Some(rule) => starling_cli::cmd_explain(&src, &rule).map(|text| CmdOutput {
                text,
                status: CmdStatus::Ok,
            }),
            None => starling_cli::cmd_explain_divergence(&src, &budget, json),
        },
        "run" => cmd_run(&src, &budget),
        "compare" => cmd_compare(&src).map(|text| CmdOutput {
            text,
            status: CmdStatus::Ok,
        }),
        other => return Err(format!("unknown command `{other}`").into()),
    };
    result.map_err(failed)
}

/// The value of the numeric flag at `args[*i]`, stepping `i` past both.
/// `what` words the flag's operand in the error ("a number").
fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> Result<T, Failure>
where
    T::Err: std::fmt::Display,
{
    let flag = &args[*i];
    let v = args
        .get(*i + 1)
        .ok_or_else(|| format!("{flag} needs {what}"))?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))?;
    *i += 2;
    Ok(v)
}

/// The `fuzz` subcommand: a differential fuzz campaign (no file argument).
/// `--cases` defaults to 500, the acceptance-criteria campaign size; the
/// corpus dir defaults to `tests/fuzz_corpus` when running from a checkout
/// (where the pinned-reproducer replay test will pick new findings up), and
/// to nowhere otherwise.
fn fuzz(args: &[String]) -> Result<CmdOutput, Failure> {
    let mut config = starling_fuzz::FuzzConfig {
        cases: 500,
        ..starling_fuzz::FuzzConfig::default()
    };
    let mut corpus_dir: Option<String> = None;
    let mut max_rows: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => config.seed = value(args, &mut i, "a number")?,
            "--cases" => config.cases = value(args, &mut i, "a number")?,
            "--budget" => config.budget.max_states = value(args, &mut i, "a number")?,
            "--max-rows" => max_rows = Some(value(args, &mut i, "a number")?),
            "--rules" => {
                let rules: usize = value(args, &mut i, "a number")?;
                if rules == 0 {
                    return Err("--rules must be at least 1".into());
                }
                // Scale the whole generator shape, not just the rule count:
                // tables grow with rules so the conflict density (and hence
                // report size) stays bounded, and seed rows drop to zero.
                // An explicit --max-rows, in either order, re-enables seed
                // data: it is applied after the loop.
                let scaled = starling_fuzz::GenConfig::scaled(rules);
                config.gen.max_rules = scaled.max_rules;
                config.gen.min_rules = scaled.min_rules;
                config.gen.max_tables = scaled.max_tables;
                config.gen.max_rows = scaled.max_rows;
            }
            "--corpus-dir" => {
                corpus_dir = Some(args.get(i + 1).ok_or("--corpus-dir needs a path")?.clone());
                i += 2;
            }
            "--mutate" => {
                let name = args.get(i + 1).ok_or("--mutate needs a name")?;
                config.mutation = starling_fuzz::Mutation::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown mutation `{name}` (expected certify-termination, \
                         certify-confluence, or certify-observable)"
                    )
                })?;
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    if let Some(rows) = max_rows {
        config.gen.max_rows = rows;
        // Generated tables start larger, so the exploration row cap must
        // scale with them or every case truncates immediately. The default
        // ratio (3 seed rows : 2000 budget rows) is preserved, with the
        // stock budget as the floor.
        config.budget.max_rows = config.budget.max_rows.max(rows.saturating_mul(700));
    }
    config.corpus_dir = match corpus_dir {
        Some(d) => Some(std::path::PathBuf::from(d)),
        None => {
            let default = std::path::Path::new("tests/fuzz_corpus");
            default.is_dir().then(|| default.to_path_buf())
        }
    };
    Ok(starling_cli::cmd_fuzz(config))
}

/// The `recover` subcommand: report (and with `--verify` cross-check) what
/// crash recovery yields for the durable store(s) under a directory.
fn recover(args: &[String]) -> Result<CmdOutput, Failure> {
    let mut dir: Option<&str> = None;
    let mut verify = false;
    for arg in args {
        match arg.as_str() {
            "--verify" => verify = true,
            other if dir.is_none() && !other.starts_with("--") => dir = Some(other),
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    let dir = dir.ok_or("recover needs a store or data directory")?;
    starling_cli::cmd_recover(std::path::Path::new(dir), verify).map_err(failed)
}

/// The `serve` and `client` subcommands. Both stream to stdout directly
/// (the listening line must appear before `serve` blocks; responses must
/// appear as they arrive), so they return an empty [`CmdOutput`].
fn serve_or_client(command: &str, args: &[String]) -> Result<CmdOutput, Failure> {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut data_dir: Option<String> = None;
    let mut sync = starling_storage::SyncPolicy::Always;
    let mut cfg = starling_server::ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).ok_or("--addr needs HOST:PORT")?.clone();
                i += 2;
            }
            "--data-dir" if command == "serve" => {
                data_dir = Some(args.get(i + 1).ok_or("--data-dir needs a path")?.clone());
                i += 2;
            }
            "--sync" if command == "serve" => {
                let name = args.get(i + 1).ok_or("--sync needs always|batch")?;
                sync = starling_storage::SyncPolicy::from_name(name)
                    .ok_or_else(|| format!("bad --sync `{name}` (expected always or batch)"))?;
                i += 2;
            }
            "--workers" if command == "serve" => {
                let n = args.get(i + 1).ok_or("--workers needs a count")?;
                cfg.workers = n
                    .parse()
                    .map_err(|_| format!("bad --workers `{n}` (expected a count; 0 = per core)"))?;
                i += 2;
            }
            "--max-inflight" if command == "serve" => {
                let n = args.get(i + 1).ok_or("--max-inflight needs a count")?;
                cfg.max_inflight = n.parse().map_err(|_| {
                    format!("bad --max-inflight `{n}` (expected a count; 0 = unlimited)")
                })?;
                i += 2;
            }
            other => return Err(format!("unknown option `{other}`").into()),
        }
    }
    match command {
        "serve" => {
            let durable = match &data_dir {
                None => None,
                Some(d) => {
                    let dir = std::path::Path::new(d);
                    std::fs::create_dir_all(dir)
                        .map_err(|e| failed(format!("cannot create data dir `{d}`: {e}")))?;
                    // Startup recovery scan: prove every existing store is
                    // recoverable (and report torn tails) before serving.
                    match starling_cli::cmd_recover(dir, false) {
                        Ok(out) => print!("{}", out.text),
                        Err(e) if e.to_string().contains("no durable stores") => {
                            println!("data dir `{d}`: no stores yet");
                        }
                        Err(e) => return Err(failed(format!("data dir `{d}`: {e}"))),
                    }
                    Some(starling_server::DurableRoot::new(dir, sync))
                }
            };
            let server = starling_server::Server::bind_cfg(&addr, durable, cfg)
                .map_err(|e| failed(format!("cannot bind `{addr}`: {e}")))?;
            // Scripts parse this line for the (possibly ephemeral) port.
            println!("starling-server listening on {}", server.local_addr());
            server.join();
            println!("starling-server drained");
        }
        "client" => {
            let mut client = starling_server::Client::connect(&addr)
                .map_err(|e| failed(format!("cannot connect to `{addr}`: {e}")))?;
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                let n = stdin
                    .read_line(&mut line)
                    .map_err(|e| failed(format!("stdin: {e}")))?;
                if n == 0 {
                    break;
                }
                if line.trim().is_empty() {
                    continue;
                }
                let response = client
                    .raw_request(line.trim_end())
                    .map_err(|e| failed(format!("connection lost: {e}")))?;
                println!("{response}");
            }
        }
        _ => unreachable!("dispatched on serve/client only"),
    }
    Ok(CmdOutput {
        text: String::new(),
        status: CmdStatus::Ok,
    })
}
