//! Minimal `--flag value` argument parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed flags: every `--name value` pair.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of a required flag, or a readable error.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Parses a u64 flag with a default.
    pub fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(0),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--seed must be an integer, got {raw:?}")),
        }
    }

    /// Parses a usize flag with a default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name} must be a non-negative integer, got {raw:?}")),
        }
    }

    /// Parses `--retries N` (default 2), at most [`dprep_llm::MAX_RETRIES`].
    pub fn retries(&self) -> Result<u32, String> {
        dprep_llm::check_retries(self.usize_or("retries", 2)?).map_err(|e| format!("--{e}"))
    }

    /// Parses a finite non-negative f64 flag (seconds, scales) with a
    /// default.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => match raw.parse::<f64>() {
                Ok(value) if value.is_finite() && value >= 0.0 => Ok(value),
                _ => Err(format!(
                    "--{name} must be a non-negative number, got {raw:?}"
                )),
            },
        }
    }

    /// Parses an on/off flag (`true`/`false`/`on`/`off`/`1`/`0`) with a
    /// default.
    pub fn bool_or(&self, name: &str, default: bool) -> Result<bool, String> {
        match self.get(name) {
            None => Ok(default),
            Some("true") | Some("on") | Some("1") => Ok(true),
            Some("false") | Some("off") | Some("0") => Ok(false),
            Some(raw) => Err(format!("--{name} must be on or off, got {raw:?}")),
        }
    }

    /// Inserts a flag value (used by tests).
    #[cfg(test)]
    pub fn set(&mut self, name: &str, value: &str) {
        self.values.insert(name.to_string(), value.to_string());
    }
}

/// Parses `--name value` pairs; rejects dangling or unnamed arguments.
pub fn parse_flags(argv: &[String]) -> Result<Flags, String> {
    let mut values = HashMap::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {arg:?}"))?;
        if name.is_empty() {
            return Err("empty flag name".into());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} is missing its value"))?;
        if values.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{name} given twice"));
        }
    }
    Ok(Flags { values })
}

/// Resolves a model-name flag to a profile (default: sim-gpt-4).
pub fn model_profile(flags: &Flags) -> Result<dprep_llm::ModelProfile, String> {
    let name = flags.get("model").unwrap_or("sim-gpt-4");
    dprep_llm::ModelProfile::all_presets()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("unknown model {name:?} (see dprep help)"))
}

/// Parses a cascade: `--route a,b[,c…]` (model profile names, cheapest
/// first) and `--escalate-on CLASSES` (stored canonical, so two spellings
/// of one policy share a journal identity), or the daemon's `route` and
/// `escalate_on` submit fields. Returns empty routes for a single-model
/// run. At least two distinct, known models are required — a one-model
/// cascade is just `--model`.
pub fn route_spec(
    route: Option<&str>,
    escalate_on: Option<&str>,
) -> Result<(Vec<String>, Option<String>), String> {
    let routes: Vec<String> = match route {
        None => Vec::new(),
        Some(spec) => {
            let names: Vec<String> = spec
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if names.len() < 2 {
                return Err(
                    "--route needs at least two comma-separated models, cheapest first \
                     (a single model is just --model)"
                        .into(),
                );
            }
            for (i, name) in names.iter().enumerate() {
                if dprep_llm::ModelProfile::by_name(name).is_none() {
                    return Err(format!("unknown route model {name:?} (see dprep help)"));
                }
                if names[..i].contains(name) {
                    return Err(format!("route model {name:?} appears twice in --route"));
                }
            }
            names
        }
    };
    let escalate_on = match escalate_on {
        None => None,
        Some(spec) => {
            if routes.is_empty() {
                return Err("--escalate-on needs --route".into());
            }
            let policy = dprep_llm::EscalationPolicy::parse(spec)
                .map_err(|e| format!("--escalate-on: {e}"))?;
            Some(policy.canonical())
        }
    };
    Ok((routes, escalate_on))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flag_pairs() {
        let flags = parse_flags(&argv(&["--input", "a.csv", "--seed", "7"])).unwrap();
        assert_eq!(flags.get("input"), Some("a.csv"));
        assert_eq!(flags.seed().unwrap(), 7);
        assert_eq!(flags.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_args() {
        assert!(parse_flags(&argv(&["input"])).is_err());
        assert!(parse_flags(&argv(&["--input"])).is_err());
        assert!(parse_flags(&argv(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn require_reports_flag_name() {
        let flags = parse_flags(&[]).unwrap();
        let err = flags.require("input").unwrap_err();
        assert!(err.contains("--input"));
    }

    #[test]
    fn model_lookup() {
        let mut flags = Flags::default();
        assert_eq!(model_profile(&flags).unwrap().name, "sim-gpt-4");
        flags.set("model", "sim-gpt-3.5");
        assert_eq!(model_profile(&flags).unwrap().name, "sim-gpt-3.5");
        flags.set("model", "gpt-9");
        assert!(model_profile(&flags).is_err());
    }

    #[test]
    fn route_spec_validates_the_cascade() {
        assert_eq!(route_spec(None, None).unwrap(), (Vec::new(), None));

        let cascade = Some("sim-gpt-3.5,sim-gpt-4");
        let (routes, policy) = route_spec(cascade, None).unwrap();
        assert_eq!(routes, vec!["sim-gpt-3.5", "sim-gpt-4"]);
        assert_eq!(policy, None);

        let (_, policy) = route_spec(cascade, Some("partial, fault")).unwrap();
        assert_eq!(policy.as_deref(), Some("fault,partial"), "canonical order");

        for bad in ["sim-gpt-4", "sim-gpt-4,gpt-9", "sim-gpt-4,sim-gpt-4"] {
            assert!(route_spec(Some(bad), None).is_err(), "{bad}");
        }
    }

    #[test]
    fn escalate_on_needs_a_route() {
        assert!(route_spec(None, Some("fault"))
            .unwrap_err()
            .contains("--route"));
    }

    #[test]
    fn bad_seed_is_an_error() {
        let mut flags = Flags::default();
        flags.set("seed", "xyz");
        assert!(flags.seed().is_err());
    }

    #[test]
    fn usize_flag_defaults_and_parses() {
        let mut flags = Flags::default();
        assert_eq!(flags.usize_or("workers", 1).unwrap(), 1);
        flags.set("workers", "8");
        assert_eq!(flags.usize_or("workers", 1).unwrap(), 8);
        flags.set("workers", "-2");
        assert!(flags.usize_or("workers", 1).is_err());
    }

    #[test]
    fn f64_flag_defaults_and_rejects_junk() {
        let mut flags = Flags::default();
        assert_eq!(flags.f64_or("deadline", 30.0).unwrap(), 30.0);
        flags.set("deadline", "2.5");
        assert_eq!(flags.f64_or("deadline", 30.0).unwrap(), 2.5);
        for bad in ["-1", "NaN", "inf", "soon"] {
            flags.set("deadline", bad);
            assert!(flags.f64_or("deadline", 30.0).is_err(), "{bad}");
        }
    }

    #[test]
    fn bool_flag_accepts_on_off_forms() {
        let mut flags = Flags::default();
        assert!(!flags.bool_or("cache", false).unwrap());
        for (raw, expect) in [("on", true), ("off", false), ("true", true), ("0", false)] {
            flags.set("cache", raw);
            assert_eq!(flags.bool_or("cache", false).unwrap(), expect, "{raw}");
        }
        flags.set("cache", "maybe");
        assert!(flags.bool_or("cache", false).is_err());
    }
}
