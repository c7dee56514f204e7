//! Minimal flag parser: `--name value` pairs plus positionals. Reading an
//! input consumes it, so [`Args::finish`] can refuse whatever a command
//! never read.

use std::fmt::Debug;
use std::ops::RangeBounds;

/// Parsed command line after the subcommand: positionals and `--flag value`
/// pairs, each in command-line order, minus those already read.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

/// A recognised subcommand plus its arguments.
#[derive(Debug, Clone)]
pub enum ParsedCommand {
    /// `nmctl generate …`
    Generate(Args),
    /// `nmctl inspect <file>`
    Inspect(Args),
    /// `nmctl bench <file> …`
    Bench(Args),
    /// `nmctl classify <file> --key …`
    Classify(Args),
    /// `nmctl train <file> --out …`
    Train(Args),
    /// `nmctl serve <file> …` — concurrent readers + a live update stream
    /// against a `ShardedHandle`.
    Serve(Args),
    /// `nmctl help`, `nmctl --help` or no arguments at all.
    Help,
}

impl Args {
    /// Parses everything after the subcommand. `--flag value` only (no `=`,
    /// no combined shorts); which flags exist is up to the command, which
    /// refuses the rest in [`Args::finish`].
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
                if out.flags.iter().any(|(n, _)| n == name) {
                    return Err(format!("flag --{name} given twice"));
                }
                out.flags.push((name.to_string(), value.clone()));
            } else {
                out.positional.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// Takes the flag's value, if given.
    fn take(&mut self, name: &str) -> Option<String> {
        let i = self.flags.iter().position(|(n, _)| n == name)?;
        Some(self.flags.remove(i).1)
    }

    /// Takes the next positional argument, if any.
    pub fn positional(&mut self) -> Option<String> {
        (!self.positional.is_empty()).then(|| self.positional.remove(0))
    }

    /// String flag with a default.
    pub fn get_or(&mut self, name: &str, default: &str) -> String {
        self.take(name).unwrap_or_else(|| default.to_string())
    }

    /// Required string flag.
    pub fn require(&mut self, name: &str) -> Result<String, String> {
        self.take(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Numeric (or boolean) flag with a default.
    pub fn num_or<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.take(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: '{v}'")),
        }
    }

    /// Numeric flag with a default; a given value outside `range` is an
    /// error naming the flag and the range, never clamped.
    pub fn num_in<T, R>(&mut self, name: &str, default: T, range: R) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + Debug,
        R: RangeBounds<T> + Debug,
    {
        let v = self.num_or(name, default)?;
        if range.contains(&v) {
            Ok(v)
        } else {
            Err(format!("--{name} must be in {range:?}, got {v:?}"))
        }
    }

    /// Refuses any flag or positional the command did not read, naming the
    /// first one in command-line order. Commands call it once, after
    /// reading their inputs and before doing any work.
    pub fn finish(self) -> Result<(), String> {
        if let Some((name, _)) = self.flags.first() {
            return Err(format!("unknown flag --{name} for this command"));
        }
        match self.positional.first() {
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
            None => Ok(()),
        }
    }
}

/// Splits a full argv (excluding the program name) into a command.
pub fn parse_command(argv: &[String]) -> Result<ParsedCommand, String> {
    let Some(cmd) = argv.first() else {
        return Ok(ParsedCommand::Help);
    };
    let rest = Args::parse(&argv[1..])?;
    Ok(match cmd.as_str() {
        "generate" => ParsedCommand::Generate(rest),
        "inspect" => ParsedCommand::Inspect(rest),
        "bench" => ParsedCommand::Bench(rest),
        "classify" => ParsedCommand::Classify(rest),
        "train" => ParsedCommand::Train(rest),
        "serve" => ParsedCommand::Serve(rest),
        "help" | "--help" => {
            rest.finish()?;
            ParsedCommand::Help
        }
        other => return Err(format!("unknown command '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let mut a =
            Args::parse(&v(&["rules.cb", "--engine", "nm-tm", "--packets", "100"])).unwrap();
        assert_eq!(a.positional().unwrap(), "rules.cb");
        assert_eq!(a.get_or("engine", "x"), "nm-tm");
        assert_eq!(a.num_or("packets", 0usize).unwrap(), 100);
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
        a.finish().unwrap();
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(Args::parse(&v(&["--engine"])).is_err());
        assert!(Args::parse(&v(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn command_dispatch() {
        assert!(matches!(parse_command(&v(&["generate"])).unwrap(), ParsedCommand::Generate(_)));
        assert!(matches!(parse_command(&v(&["serve", "x"])).unwrap(), ParsedCommand::Serve(_)));
        let err = parse_command(&v(&["nope"])).unwrap_err();
        assert!(err.contains("'nope'"), "{err}");
        assert!(matches!(parse_command(&v(&[])).unwrap(), ParsedCommand::Help));
        assert!(matches!(parse_command(&v(&["help"])).unwrap(), ParsedCommand::Help));
        assert!(matches!(parse_command(&v(&["--help"])).unwrap(), ParsedCommand::Help));
        assert!(parse_command(&v(&["help", "bench"])).unwrap_err().contains("'bench'"));
    }

    #[test]
    fn require_reports_flag_name() {
        let mut a = Args::parse(&v(&["x"])).unwrap();
        let err = a.require("key").unwrap_err();
        assert!(err.contains("--key"));
    }

    #[test]
    fn finish_names_the_first_unread_input() {
        let mut a = Args::parse(&v(&["f", "--shard", "4", "--seed", "2", "g"])).unwrap();
        a.positional().unwrap();
        a.num_or("seed", 1u64).unwrap();
        assert_eq!(a.clone().finish().unwrap_err(), "unknown flag --shard for this command");
        a.num_or("shard", 1usize).unwrap();
        assert_eq!(a.finish().unwrap_err(), "unexpected argument 'g'");
    }

    #[test]
    fn num_in_refuses_instead_of_clamping() {
        let mut a = Args::parse(&v(&["--readers", "0", "--window", "513"])).unwrap();
        assert_eq!(
            a.num_in("readers", 2usize, 1..).unwrap_err(),
            "--readers must be in 1.., got 0"
        );
        let err = a.num_in("window", 128usize, 1..=512).unwrap_err();
        assert_eq!(err, "--window must be in 1..=512, got 513");
        assert_eq!(a.num_in("absent", 7usize, 1..=8).unwrap(), 7);
    }
}
