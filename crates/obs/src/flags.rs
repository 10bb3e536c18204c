//! The shared typed flag API: every tiling3d binary (the `tiling3d` CLI
//! subcommands and the bench drivers) declares its flags as a [`FlagSet`]
//! and parses through [`FlagSet::parse`].
//!
//! Replaces two previously duplicated hand-rolled parsers (the CLI's
//! positional scanner and the bench drivers' free functions). Unknown or
//! malformed flags are hard errors; usage text is generated from the
//! declarations so it cannot drift from what the parser accepts; the
//! observability flags (`--log-level`, `--trace-out`, `--progress`) are
//! appended to every set automatically. An output format is not one of
//! them: a command that renders more than one format declares its own
//! `--format`, so every other command rejects it as an unknown flag.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::ObsConfig;

/// The type a flag's value parses to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlagKind {
    /// `--flag N` — unsigned integer.
    Usize,
    /// `--flag` — boolean presence, no value.
    Switch,
    /// `--flag STR` — free-form string.
    Str,
    /// `--flag AxB` — pair of unsigned integers separated by `x`.
    Pair,
}

impl FlagKind {
    fn value_hint(self) -> &'static str {
        match self {
            FlagKind::Usize => " N",
            FlagKind::Switch => "",
            FlagKind::Str => " STR",
            FlagKind::Pair => " AxB",
        }
    }
}

/// One declared flag.
#[derive(Clone, Copy, Debug)]
pub struct FlagSpec {
    /// Flag name including leading dashes, e.g. `--jobs`.
    pub name: &'static str,
    /// Value type.
    pub kind: FlagKind,
    /// Default as it would appear on the command line (`None` = absent;
    /// switches always default to off).
    pub default: Option<&'static str>,
    /// One-line help.
    pub help: &'static str,
}

impl FlagSpec {
    /// Declares a usize flag.
    pub const fn usize(
        name: &'static str,
        default: Option<&'static str>,
        help: &'static str,
    ) -> Self {
        FlagSpec {
            name,
            kind: FlagKind::Usize,
            default,
            help,
        }
    }

    /// Declares a boolean switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        FlagSpec {
            name,
            kind: FlagKind::Switch,
            default: None,
            help,
        }
    }

    /// Declares a string flag.
    pub const fn str(
        name: &'static str,
        default: Option<&'static str>,
        help: &'static str,
    ) -> Self {
        FlagSpec {
            name,
            kind: FlagKind::Str,
            default,
            help,
        }
    }

    /// Declares an `AxB` pair flag.
    pub const fn pair(name: &'static str, help: &'static str) -> Self {
        FlagSpec {
            name,
            kind: FlagKind::Pair,
            default: None,
            help,
        }
    }
}

/// The observability flags appended to every [`FlagSet`].
pub const OBS_FLAGS: &[FlagSpec] = &[
    FlagSpec::str(
        "--log-level",
        Some("info"),
        "log verbosity: off|error|info|debug",
    ),
    FlagSpec::str("--trace-out", None, "write a JSONL trace to this path"),
    FlagSpec::switch("--progress", "emit progress ticks on stderr"),
];

/// A command's declared flag surface: name, about line, optional
/// positional, flags. Parsing and usage generation both read from this one
/// declaration.
#[derive(Clone, Debug)]
pub struct FlagSet {
    /// Command name as invoked (e.g. `tiling3d plan`, `fig_miss`).
    pub name: &'static str,
    /// One-line description shown in usage.
    pub about: &'static str,
    /// Optional positional argument: `(placeholder, help)`.
    pub positional: Option<(&'static str, &'static str)>,
    flags: Vec<FlagSpec>,
}

impl FlagSet {
    /// Builds a flag set; the OBS flags are appended automatically.
    pub fn new(
        name: &'static str,
        about: &'static str,
        positional: Option<(&'static str, &'static str)>,
        flags: &[FlagSpec],
    ) -> Self {
        let mut all = flags.to_vec();
        for f in OBS_FLAGS {
            if !all.iter().any(|g| g.name == f.name) {
                all.push(*f);
            }
        }
        FlagSet {
            name,
            about,
            positional,
            flags: all,
        }
    }

    /// The declared flags, OBS flags included.
    pub fn flags(&self) -> &[FlagSpec] {
        &self.flags
    }

    /// Auto-generated usage text. Tests pin this against the parser by
    /// construction: both read the same declarations.
    pub fn usage(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} — {}\n\nusage: {}",
            self.name, self.about, self.name
        ));
        if let Some((pos, _)) = self.positional {
            out.push_str(&format!(" <{pos}>"));
        }
        out.push_str(" [flags]\n");
        if let Some((pos, help)) = self.positional {
            out.push_str(&format!("\n  <{pos}>  {help}\n"));
        }
        out.push_str("\nflags:\n");
        let width = self
            .flags
            .iter()
            .map(|f| f.name.len() + f.kind.value_hint().len())
            .max()
            .unwrap_or(0);
        for f in &self.flags {
            let lhs = format!("{}{}", f.name, f.kind.value_hint());
            out.push_str(&format!("  {lhs:width$}  {}", f.help));
            if let Some(d) = f.default {
                out.push_str(&format!(" [default: {d}]"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses raw arguments (not including argv\[0\]/the subcommand name).
    /// Unknown flags, missing values, malformed values, and unexpected
    /// positionals are errors carrying the usage text.
    pub fn parse(&self, raw: &[String]) -> Result<ParsedFlags, String> {
        let mut values: BTreeMap<&'static str, String> = BTreeMap::new();
        let mut switches: BTreeMap<&'static str, bool> = BTreeMap::new();
        let mut positional: Option<String> = None;
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            if arg == "--help" || arg == "-h" {
                return Err(self.usage());
            }
            if let Some(spec) = self.flags.iter().find(|f| f.name == arg) {
                if spec.kind == FlagKind::Switch {
                    switches.insert(spec.name, true);
                } else {
                    let v = raw.get(i + 1).ok_or_else(|| {
                        format!("{}: missing value\n\n{}", spec.name, self.usage())
                    })?;
                    values.insert(spec.name, v.clone());
                    i += 1;
                }
            } else if arg.starts_with('-') && arg.len() > 1 {
                return Err(format!("unknown flag '{arg}'\n\n{}", self.usage()));
            } else if self.positional.is_some() && positional.is_none() {
                positional = Some(arg.clone());
            } else {
                return Err(format!("unexpected argument '{arg}'\n\n{}", self.usage()));
            }
            i += 1;
        }
        // Validate every provided value against its declared kind now, so
        // errors surface even for flags the command never reads back.
        for spec in &self.flags {
            if let Some(v) = values.get(spec.name) {
                match spec.kind {
                    FlagKind::Usize => {
                        v.parse::<usize>()
                            .map_err(|_| format!("{}: expected a number, got '{v}'", spec.name))?;
                    }
                    FlagKind::Pair => {
                        parse_pair(spec.name, v)?;
                    }
                    FlagKind::Str | FlagKind::Switch => {}
                }
            }
        }
        Ok(ParsedFlags {
            set: self.clone(),
            values,
            switches,
            positional,
        })
    }
}

fn parse_pair(name: &str, v: &str) -> Result<(usize, usize), String> {
    let (a, b) = v
        .split_once('x')
        .ok_or_else(|| format!("{name}: expected AxB, got '{v}'"))?;
    Ok((
        a.parse().map_err(|_| format!("{name}: bad number '{a}'"))?,
        b.parse().map_err(|_| format!("{name}: bad number '{b}'"))?,
    ))
}

/// Parsed, validated arguments. Typed getters panic on a flag name that was
/// never declared (a programmer error caught by any test that exercises the
/// command); `try_*` variants return options for generic plumbing.
#[derive(Clone, Debug)]
pub struct ParsedFlags {
    set: FlagSet,
    values: BTreeMap<&'static str, String>,
    switches: BTreeMap<&'static str, bool>,
    positional: Option<String>,
}

impl ParsedFlags {
    fn spec(&self, name: &str) -> &FlagSpec {
        self.set
            .flags
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("flag {name} was not declared for {}", self.set.name))
    }

    fn raw(&self, name: &str) -> Option<&str> {
        let spec = self.spec(name);
        self.values
            .get(spec.name)
            .map(String::as_str)
            .or(spec.default)
    }

    /// The command these flags were parsed for (its [`FlagSet::name`]).
    pub fn command(&self) -> &'static str {
        self.set.name
    }

    /// The positional argument, if one was declared and given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// A usize flag's value (declared default when absent).
    pub fn usize(&self, name: &str) -> usize {
        self.try_usize(name)
            .unwrap_or_else(|| panic!("flag {name} has no value and no default"))
    }

    /// A usize flag's value, `None` when absent with no default.
    pub fn try_usize(&self, name: &str) -> Option<usize> {
        // Already validated in parse(); unwrap is safe for provided values,
        // and defaults are trusted declarations.
        self.raw(name)
            .map(|v| v.parse().expect("validated in parse"))
    }

    /// Like [`ParsedFlags::try_usize`] but also returns `None` when the
    /// flag was never declared for this command — for shared config
    /// builders reading whichever of a flag family a command opted into.
    pub fn opt_usize(&self, name: &str) -> Option<usize> {
        if !self.set.flags.iter().any(|f| f.name == name) {
            return None;
        }
        self.try_usize(name)
    }

    /// Like [`ParsedFlags::switch`] but `false` when the flag was never
    /// declared for this command — the switch analogue of
    /// [`ParsedFlags::opt_usize`].
    pub fn opt_switch(&self, name: &str) -> bool {
        if !self.set.flags.iter().any(|f| f.name == name) {
            return false;
        }
        self.switch(name)
    }

    /// Like [`ParsedFlags::try_str`] but also `None` when the flag was
    /// never declared for this command.
    pub fn opt_str(&self, name: &str) -> Option<&str> {
        if !self.set.flags.iter().any(|f| f.name == name) {
            return None;
        }
        self.try_str(name)
    }

    /// Is the switch present?
    pub fn switch(&self, name: &str) -> bool {
        let spec = self.spec(name);
        assert!(spec.kind == FlagKind::Switch, "{name} is not a switch");
        self.switches.get(spec.name).copied().unwrap_or(false)
    }

    /// A string flag's value (declared default when absent).
    pub fn str(&self, name: &str) -> &str {
        self.try_str(name)
            .unwrap_or_else(|| panic!("flag {name} has no value and no default"))
    }

    /// A string flag's value, `None` when absent with no default.
    pub fn try_str(&self, name: &str) -> Option<&str> {
        self.raw(name)
    }

    /// An `AxB` pair flag's value, `None` when absent.
    pub fn try_pair(&self, name: &str) -> Option<(usize, usize)> {
        let spec = self.spec(name);
        assert!(spec.kind == FlagKind::Pair, "{name} is not a pair");
        self.raw(name)
            .map(|v| parse_pair(name, v).expect("validated in parse"))
    }

    /// A value parsed via `FromStr` — how commands read kernels, transforms
    /// and stencil shapes through their single `FromStr` impls.
    pub fn parse_str<T>(&self, name: &str) -> Result<T, String>
    where
        T: std::str::FromStr<Err = String>,
    {
        self.str(name).parse()
    }
}

impl ObsConfig {
    /// Builds the observability configuration from the auto-appended OBS
    /// flags of any parsed command line.
    pub fn from_flags(flags: &ParsedFlags) -> Result<Self, String> {
        let log_level = match flags.str("--log-level") {
            "off" => 0,
            "error" => 1,
            "info" => 2,
            "debug" => 3,
            other => return Err(format!("--log-level: unknown level '{other}'")),
        };
        Ok(ObsConfig {
            collect: false,
            trace_out: flags.try_str("--trace-out").map(PathBuf::from),
            progress: flags.switch("--progress"),
            log_level,
            ..ObsConfig::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> FlagSet {
        FlagSet::new(
            "demo",
            "demo command",
            Some(("kernel", "which kernel")),
            &[
                FlagSpec::usize("--n", Some("64"), "problem size"),
                FlagSpec::str("--mode", Some("fast"), "run mode"),
                FlagSpec::switch("--csv", "emit csv"),
                FlagSpec::pair("--dims", "array dims"),
            ],
        )
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_typed_values_defaults_and_positional() {
        let p = set()
            .parse(&argv("jacobi --n 128 --csv --dims 10x20"))
            .unwrap();
        assert_eq!(p.positional(), Some("jacobi"));
        assert_eq!(p.usize("--n"), 128);
        assert!(p.switch("--csv"));
        assert_eq!(p.try_pair("--dims"), Some((10, 20)));
        let d = set().parse(&argv("")).unwrap();
        assert_eq!(d.usize("--n"), 64);
        assert!(!d.switch("--csv"));
        assert_eq!(d.try_pair("--dims"), None);
        assert_eq!(d.str("--mode"), "fast");
    }

    #[test]
    fn unknown_and_malformed_flags_are_errors_with_usage() {
        let err = set().parse(&argv("--bogus 1")).unwrap_err();
        assert!(err.contains("unknown flag '--bogus'"), "{err}");
        assert!(err.contains("usage: demo"), "{err}");
        let err = set().parse(&argv("--n abc")).unwrap_err();
        assert!(err.contains("expected a number"), "{err}");
        let err = set().parse(&argv("--dims 10")).unwrap_err();
        assert!(err.contains("expected AxB"), "{err}");
        let err = set().parse(&argv("--n")).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        let err = set().parse(&argv("a b")).unwrap_err();
        assert!(err.contains("unexpected argument 'b'"), "{err}");
        // No output format is appended: a set that does not declare one
        // rejects it.
        let err = set().parse(&argv("--format json")).unwrap_err();
        assert!(err.contains("unknown flag '--format'"), "{err}");
    }

    #[test]
    fn usage_lists_every_declared_flag_including_obs() {
        let u = set().usage();
        for f in set().flags() {
            assert!(u.contains(f.name), "usage missing {}: {u}", f.name);
        }
        assert!(u.contains("--trace-out"), "{u}");
        assert!(u.contains("<kernel>"), "{u}");
        assert!(u.contains("[default: 64]"), "{u}");
    }

    #[test]
    fn opt_getters_tolerate_undeclared_flags() {
        let p = set().parse(&argv("--csv")).unwrap();
        assert!(p.opt_switch("--csv"));
        assert!(!p.opt_switch("--never-declared"));
        assert_eq!(p.opt_str("--mode"), Some("fast"));
        assert_eq!(p.opt_str("--never-declared"), None);
    }

    #[test]
    fn obs_config_reads_the_auto_appended_flags() {
        let p = set()
            .parse(&argv(
                "--log-level debug --trace-out /tmp/t.jsonl --progress",
            ))
            .unwrap();
        let cfg = ObsConfig::from_flags(&p).unwrap();
        assert_eq!(cfg.log_level, 3);
        assert!(cfg.progress);
        assert_eq!(
            cfg.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        let p = set().parse(&argv("--log-level nope")).unwrap();
        assert!(ObsConfig::from_flags(&p).is_err());
    }
}
