//! The grammar of the `smoothop` command line, declared once.
//!
//! [`COMMANDS`](crate::cli::COMMANDS) lists each subcommand with its
//! positional shape and one help line; [`FLAGS`](crate::cli::FLAGS)
//! lists each flag with its value hint, the commands that read it and
//! its help text. [`parse`](crate::cli::parse) accepts exactly what the
//! two tables declare — `--flag value` and `--flag=value` alike — and
//! rejects anything else with a message naming the argument: an unknown
//! flag, a flag the command does not read, a missing value, or a
//! positional beyond the command's shape. [`usage`](crate::cli::usage)
//! renders `smoothop help` from the same tables.

use std::collections::BTreeMap;
use std::str::FromStr;

/// One `smoothop` subcommand.
#[derive(Debug)]
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// Its positionals as help shows them (`<dc> [n]`, `[n]` or none);
    /// each word is one positional.
    pub shape: &'static str,
    /// One help line.
    pub help: &'static str,
}

/// One flag and the commands that read it.
#[derive(Debug)]
pub struct Flag {
    /// The flag, `--` included.
    pub name: &'static str,
    /// The value hint shown in help (e.g. `<path>`); `None` for a switch.
    pub value: Option<&'static str>,
    /// The commands that read the flag; empty for a global flag.
    pub commands: &'static [&'static str],
    /// The help text.
    pub help: &'static str,
}

const fn cmd(name: &'static str, shape: &'static str, help: &'static str) -> Command {
    Command { name, shape, help }
}

const fn flag(
    name: &'static str,
    value: Option<&'static str>,
    commands: &'static [&'static str],
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        commands,
        help,
    }
}

/// Every subcommand, in help order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    cmd("scenarios", "", "list the built-in datacenter presets"),
    cmd("breakdown", "<dc> [n]", "per-service power shares (Figure 5)"),
    cmd("place", "<dc> [n]", "§3.5 placement vs the historical layout (Figure 10)"),
    cmd("pipeline", "<dc> [n]", "full reshaping pipeline (Figures 12-14)"),
    cmd("longrun", "<dc> [n]", "weeks of drift with §3.6 monitored remapping"),
    cmd("dot", "<dc> [n]", "graphviz dot of the placed topology"),
    cmd("simulate", "<dc> [n]", "one week of runtime reshaping"),
    cmd("report", "<dc> [n]",
        "instrumented place, drift, remap and simulate run, printed as a telemetry summary"),
    cmd("check", "[n]", "seeded correctness-oracle battery over n instances (default 1000)"),
    cmd("scale", "", "columnar scale ladder; writes BENCH_scale.json"),
    cmd("plan", "",
        "capacity-planning sweep: racks of extra workload that fit under one MSB budget at \
         each overbooking allowance δ, StatProf vs SmoothOperator; writes BENCH_plan.json"),
    cmd("online", "",
        "online arrival/departure rung, compared against a churn-free greedy replay of the \
         final fleet; writes BENCH_online.json"),
    cmd("serve", "",
        "smoothopd, the resident placement daemon: streaming sample ingest, live queries \
         and background repair over one HTTP port"),
    cmd("daemon", "", "daemon ingest load rung; writes BENCH_daemon.json"),
    cmd("help", "", "print this usage (also `-h` or `--help` after any command)"),
];

/// Every flag, in help order. `--instances` has two rows: a ladder for
/// the rungs and a single fleet size for `serve`.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("--metrics-out", Some("<path>"), &[],
        "write a Prometheus text snapshot of the metrics recorded during the command"),
    flag("--trace-out", Some("<path>"), &[],
        "write the recorded span and point events as JSON lines"),
    flag("--threads", Some("<n>"), &[],
        "thread-lane budget for the parallel kernels (at least 1)"),
    flag("--faults", Some("<spec>"), &["simulate"],
        "inject faults: comma-separated key=value pairs (seed, dropout, stuck, crash, trips, \
         mean-steps, trip-steps, trip-severity) or `none`, e.g. seed=7,dropout=0.2,trips=1"),
    flag("--seed", Some("<u64>"), &["check", "scale", "plan", "online", "serve", "daemon"],
        "run seed (default 7); for `check` it picks the scenario and drives every randomized \
         probe"),
    flag("--instances", Some("<list>"), &["scale", "online", "daemon"],
        "comma-separated ladder of fleet sizes (default 10000,100000,1000000 for `scale`, \
         10000,100000 otherwise)"),
    flag("--instances", Some("<n>"), &["serve"],
        "resident fleet size, a single count (default 960)"),
    flag("--out", Some("<path>"), &["scale", "plan", "online", "daemon"],
        "output path (default BENCH_<command>.json)"),
    flag("--quantiles", Some("<mode>"), &["scale"],
        "`exact` (selection, the default, bit-reproducible) or `sketch` (streaming P², \
         approximate)"),
    flag("--chunk-rows", Some("<n>"), &["scale"],
        "rows per streaming chunk (0 = default; rounded up to a multiple of the group size; \
         never changes checksums)"),
    flag("--workload", Some("<name>"), &["scale"],
        "waveform family: `diurnal` (default) or `llm` (token-bursty, correlated 30-min \
         bursts)"),
    flag("--base", Some("<n>"), &["plan"],
        "instances of the existing base fleet (default 50000)"),
    flag("--racks", Some("<n>"), &["plan"],
        "sweep depth in candidate racks of 12 slots each (default 2560)"),
    flag("--deltas", Some("<list>"), &["plan"],
        "comma-separated overbooking allowances, strictly ascending (default 0,0.05,0.10)"),
    flag("--workloads", Some("<list>"), &["plan"],
        "comma-separated candidate mixes from web-mix, llm-mix (default both)"),
    flag("--budget", Some("<watts>"), &["plan"],
        "explicit MSB budget (default: the base fleet's StatProf requirement plus 10% \
         headroom)"),
    flag("--batches", Some("<n>"), &["online", "daemon"],
        "event batches for `online` (default 8); full fleet sweeps for `daemon` (default 3)"),
    flag("--probes", Some("<n>"), &["online", "serve", "daemon"],
        "candidate racks sampled per arrival (default 64)"),
    flag("--repair", Some("<n>"), &["online", "serve", "daemon"],
        "repair swaps allowed per pass (default 8; 0 disables repair)"),
    flag("--listen", Some("<addr>"), &["online", "serve"],
        "`online`: serve /metrics /health /alerts /flight?n=K over HTTP while the rung runs \
         (e.g. 127.0.0.1:9184); `serve`: the daemon's address (default 127.0.0.1:0, an \
         ephemeral port announced on stdout)"),
    flag("--repair-interval-ms", Some("<n>"), &["serve"],
        "run one budgeted repair pass every n milliseconds in the background (0, the \
         default, repairs only on POST /repair)"),
    flag("--ttl-ms", Some("<n>"), &["serve"],
        "shut down after n milliseconds (default: run until POST /shutdown)"),
    flag("--watch-out", Some("<path>"), &["online"],
        "write the JSONL stream: batch heartbeats, alert transitions, flight dumps and one \
         summary per point"),
    flag("--flight-out", Some("<path>"), &["online", "serve"],
        "dump the full flight-recorder ring as JSONL on exit"),
    flag("--flight-capacity", Some("<n>"), &["online", "serve"],
        "flight-recorder ring capacity (default 4096, at least 1)"),
    flag("--plant-violation", None, &["online"],
        "inject one oversized arrival mid-run to force a breaker-budget violation, an alert \
         and a flight dump"),
];

/// A parsed command line: the command, its positionals and the flags
/// given, each already checked against the tables.
#[derive(Debug)]
pub struct Args {
    /// The selected command (`help` when none was given).
    pub command: &'static Command,
    /// Positional arguments, at most the command's shape allows.
    pub positionals: Vec<String>,
    /// Flag values by flag name; switches map to `None`.
    values: BTreeMap<&'static str, Option<String>>,
}

impl Args {
    /// True when `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// The raw value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values.get(flag)?.as_deref()
    }

    /// The value of `flag` parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// Names the flag and the value when it does not parse.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag).map(|raw| parse_one(flag, raw)).transpose()
    }

    /// Overwrites `slot` with the value of `flag` parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// As for [`get`](Args::get).
    pub fn set<T: FromStr>(&self, flag: &str, slot: &mut T) -> Result<(), String> {
        if let Some(value) = self.get(flag)? {
            *slot = value;
        }
        Ok(())
    }

    /// The value of `flag` as a comma-separated list of `T`, if given.
    ///
    /// # Errors
    ///
    /// Names the flag and the first element that does not parse.
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String> {
        self.value(flag)
            .map(|raw| {
                raw.split(',')
                    .map(|part| parse_one(flag, part.trim()))
                    .collect()
            })
            .transpose()
    }
}

fn parse_one<T: FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} `{raw}` is not a number"))
}

/// Parses `smoothop`'s arguments (program name excluded) against
/// [`COMMANDS`] and [`FLAGS`]. No arguments, or `-h`/`--help` anywhere,
/// select `help`.
///
/// # Errors
///
/// An unknown command or flag, a flag the command does not read, a
/// missing or unexpected value, or a positional beyond the command's
/// shape; the message names the offending argument.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let args: Vec<String> = args.into_iter().collect();
    let wants_help = args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help");
    let name = if wants_help { "help" } else { &args[0] };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}` (try `smoothop help`)"))?;
    let mut parsed = Args {
        command,
        positionals: Vec::new(),
        values: BTreeMap::new(),
    };
    if wants_help {
        return Ok(parsed);
    }
    let name = command.name;
    let mut rest = args.into_iter().skip(1);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if parsed.positionals.len() == command.shape.split_whitespace().count() {
                return Err(format!(
                    "unexpected argument `{arg}` (usage: smoothop {name} {})",
                    command.shape
                ));
            }
            parsed.positionals.push(arg);
            continue;
        }
        let (given, inline) = match arg.split_once('=') {
            Some((given, value)) => (given, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let mut declared = FLAGS.iter().filter(|f| f.name == given).peekable();
        if declared.peek().is_none() {
            return Err(format!("unknown flag `{given}` (try `smoothop help`)"));
        }
        let flag = declared
            .find(|f| f.commands.is_empty() || f.commands.contains(&name))
            .ok_or_else(|| format!("`{name}` does not take `{given}`"))?;
        let value = match (flag.value, inline) {
            (None, None) => None,
            (None, Some(_)) => return Err(format!("`{given}` takes no value")),
            (Some(_), Some(value)) => Some(value),
            (Some(hint), None) => Some(
                rest.next()
                    .filter(|value| !value.starts_with("--"))
                    .ok_or_else(|| format!("`{given}` requires a value {hint}"))?,
            ),
        };
        parsed.values.insert(flag.name, value);
    }
    Ok(parsed)
}

/// The `smoothop help` text, rendered from [`COMMANDS`] and [`FLAGS`].
pub fn usage() -> String {
    let mut out = String::from(
        "smoothop — SmoothOperator (ASPLOS'18) reproduction CLI\n\n\
         USAGE: smoothop <command> [positionals] [--flag value | --flag=value]...\n\n\
         COMMANDS:\n",
    );
    for c in COMMANDS {
        entry(&mut out, &format!("{} {}", c.name, c.shape), c.help);
    }
    out.push_str(
        "\n  <dc> is dc1, dc2 or dc3; n is the fleet size (default 240)\n\n\
         FLAGS ([the commands that read it]; none listed: every command):\n",
    );
    for f in FLAGS {
        let head = match f.value {
            Some(hint) => format!("{} {hint}", f.name),
            None => f.name.to_string(),
        };
        let help = if f.commands.is_empty() {
            f.help.to_string()
        } else {
            format!("[{}] {}", f.commands.join(", "), f.help)
        };
        entry(&mut out, &head, &help);
    }
    out
}

/// Appends one help entry: `head` in a 26-column gutter, then `text`
/// word-wrapped to 80 columns.
fn entry(out: &mut String, head: &str, text: &str) {
    const GUTTER: usize = 26;
    const WIDTH: usize = 80;
    let head = format!("  {head}");
    // A head too wide for the gutter gets a line of its own.
    let mut line = if head.chars().count() < GUTTER {
        format!("{head:GUTTER$}")
    } else {
        out.push_str(&head);
        out.push('\n');
        " ".repeat(GUTTER)
    };
    for word in text.split_whitespace() {
        let used = line.chars().count();
        if used > GUTTER && used + 1 + word.chars().count() > WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(GUTTER);
        } else if used > GUTTER {
            line.push(' ');
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn tables_are_consistent() {
        for f in FLAGS {
            assert!(f.name.starts_with("--"), "{}", f.name);
            for c in f.commands {
                assert!(COMMANDS.iter().any(|known| known.name == *c), "{c}");
            }
        }
        // Each command sees at most one row per flag name.
        for c in COMMANDS {
            let mut seen = std::collections::BTreeSet::new();
            for f in FLAGS {
                if f.commands.is_empty() || f.commands.contains(&c.name) {
                    assert!(seen.insert(f.name), "{} twice for {}", f.name, c.name);
                }
            }
        }
    }

    #[test]
    fn rejections_name_the_argument() {
        for (line, needle) in [
            ("frobnicate", "`frobnicate`"),
            ("online --out --seed 3", "`--out`"),
            ("online --plant-violation=yes", "`--plant-violation`"),
            ("check 1 2", "`2`"),
        ] {
            let err = args(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn help_is_the_default_and_fits_80_columns() {
        assert_eq!(args("").unwrap().command.name, "help");
        for line in usage().lines() {
            assert!(line.chars().count() <= 80, "{line}");
        }
    }

    #[test]
    fn typed_values_and_lists() {
        let a = args("scale --instances 10,20 --quantiles=sketch --seed=3").unwrap();
        assert_eq!(a.list::<usize>("--instances"), Ok(Some(vec![10, 20])));
        assert_eq!(a.value("--quantiles"), Some("sketch"));
        assert_eq!(a.get::<u64>("--seed"), Ok(Some(3)));
        assert_eq!(a.get::<usize>("--chunk-rows"), Ok(None));
        let serve = args("serve --instances 10,20").unwrap();
        assert!(serve
            .get::<usize>("--instances")
            .unwrap_err()
            .contains("--instances"));
    }
}
