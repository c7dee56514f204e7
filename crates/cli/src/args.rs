//! Minimal flag parser: `--name value` pairs plus positionals.

use std::collections::HashMap;

/// Parsed command line: subcommand, positionals, `--flag value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
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
    /// `nmctl help` or anything unrecognised.
    Help,
}

impl Args {
    /// Parses everything after the subcommand. `--flag value` only (no `=`,
    /// no combined shorts); unknown flags are kept and validated by the
    /// command.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("flag --{name} needs a value"))?;
                if out.flags.insert(name.to_string(), value.clone()).is_some() {
                    return Err(format!("flag --{name} given twice"));
                }
            } else {
                out.positional.push(tok.clone());
            }
        }
        Ok(out)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: '{v}'")),
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
        _ => ParsedCommand::Help,
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
        let a = Args::parse(&v(&["rules.cb", "--engine", "nm-tm", "--packets", "100"])).unwrap();
        assert_eq!(a.positional, vec!["rules.cb"]);
        assert_eq!(a.get_or("engine", "x"), "nm-tm");
        assert_eq!(a.num_or("packets", 0usize).unwrap(), 100);
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
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
        assert!(matches!(parse_command(&v(&["nope"])).unwrap(), ParsedCommand::Help));
        assert!(matches!(parse_command(&v(&[])).unwrap(), ParsedCommand::Help));
    }

    #[test]
    fn require_reports_flag_name() {
        let a = Args::parse(&v(&["x"])).unwrap();
        let err = a.require("key").unwrap_err();
        assert!(err.contains("--key"));
    }
}
