//! Minimal dependency-free argument parsing.

/// Parsed command-line flags: positional arguments plus `--key value`
/// options (repeatable) and bare `--flags`.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--key value` options (a key may repeat).
    pub options: Vec<(String, String)>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

/// Option keys that take a value (everything else after `--` is a flag).
const VALUED: &[&str] = &[
    "arch",
    "san",
    "bug",
    "o",
    "mode",
    "call",
    "iters",
    "seed",
    "syscalls",
    "cpus",
    "budget",
    "journal",
    "resume",
    "fault-plan",
    "kill-after",
    "checkpoint-every",
    "workers",
    "epoch",
    "json",
    "metrics-out",
    "trace-out",
    "out",
    "format",
    "analysis",
    "state-dir",
    "socket",
    "slice",
    "max-active",
    "max-queued",
    "max-strikes",
    "turn-timeout-ms",
    "await-jobs",
    "report",
    "firmware",
    "priority",
    "drill",
    "mmio-model-free",
];

/// Parses `argv` (without the subcommand itself).
///
/// # Errors
///
/// Returns a message if a valued option is missing its value.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut iter = argv.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')) {
            if VALUED.contains(&key) {
                let value = iter.next().ok_or_else(|| format!("option --{key} needs a value"))?;
                parsed.options.push((key.to_string(), value.clone()));
            } else {
                parsed.flags.push(key.to_string());
            }
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl Parsed {
    /// The last value given for `key`.
    pub fn option(&self, key: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Every value given for `key`, in order.
    pub fn option_all(&self, key: &str) -> Vec<&str> {
        self.options.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    /// Parses an integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn option_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.option(key) {
            None => Ok(default),
            Some(text) => {
                text.parse().map_err(|_| format!("--{key} expects an integer, got `{text}`"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn mixes_positionals_options_and_flags() {
        let parsed = parse(&argv(&[
            "emblinux",
            "--arch",
            "mips",
            "--bug",
            "a:uaf",
            "--bug",
            "b:oob-write",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(parsed.positional, vec!["emblinux"]);
        assert_eq!(parsed.option("arch"), Some("mips"));
        assert_eq!(parsed.option_all("bug"), vec!["a:uaf", "b:oob-write"]);
        assert!(parsed.flags.contains(&"verbose".to_string()));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--arch"])).is_err());
    }

    #[test]
    fn numeric_options() {
        let parsed = parse(&argv(&["--iters", "500"])).unwrap();
        assert_eq!(parsed.option_u64("iters", 10).unwrap(), 500);
        assert_eq!(parsed.option_u64("seed", 7).unwrap(), 7);
        let parsed = parse(&argv(&["--iters", "abc"])).unwrap();
        assert!(parsed.option_u64("iters", 10).is_err());
    }
}
