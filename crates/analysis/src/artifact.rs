//! The versioned `embsan-analysis-v2` artifact.
//!
//! One static-analysis run feeds many fuzzing campaigns (the Ember-IO
//! amortization idiom): `embsan analyze --out FILE` serializes what a
//! directed campaign needs — the harvested comparison operands, plus the
//! image identity that pairs the artifact with its firmware — as a small,
//! versioned, dependency-free JSON document. `embsan fuzz --analysis FILE`
//! loads it back without re-running the analyzer.
//!
//! The schema (all numbers are non-negative integers; operands are sorted):
//!
//! ```json
//! {
//!   "version": "embsan-analysis-v2",
//!   "arch": "Armv",
//!   "entry": 4096,
//!   "text_base": 4096,
//!   "text_len": 65536,
//!   "cmp_operands": [[value, guard_block], ...]
//! }
//! ```
//!
//! Version 1 also carried a flow graph and a target set for a distance
//! scheduler that no longer exists; a v1 document is refused by name.
//!
//! The pretty layout is written here; reading goes through
//! [`embsan_obs::json`].

use embsan_asm::image::FirmwareImage;
use embsan_emu::profile::Arch;
use embsan_obs::json::{self, Value};

use crate::cfg::Cfg;
use crate::compare::{self, CmpOperand};

/// The artifact format version tag.
pub const VERSION: &str = "embsan-analysis-v2";

/// A serialized analysis run: everything a directed campaign consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisArtifact {
    /// Architecture of the analyzed image.
    pub arch: Arch,
    /// Image entry point (used to cross-check artifact/image pairing).
    pub entry: u32,
    /// Text base address.
    pub text_base: u32,
    /// Text length in bytes.
    pub text_len: u32,
    /// Harvested comparison operands with their guarding blocks.
    pub cmp_operands: Vec<CmpOperand>,
}

fn arch_name(arch: Arch) -> &'static str {
    match arch {
        Arch::Armv => "Armv",
        Arch::Mipsv => "Mipsv",
        Arch::X86v => "X86v",
    }
}

fn arch_from_name(name: &str) -> Option<Arch> {
    match name {
        "Armv" => Some(Arch::Armv),
        "Mipsv" => Some(Arch::Mipsv),
        "X86v" => Some(Arch::X86v),
        _ => None,
    }
}

impl AnalysisArtifact {
    /// Runs the full analysis over an image and packages the result.
    pub fn from_image(image: &FirmwareImage) -> AnalysisArtifact {
        AnalysisArtifact::from_cfg(&Cfg::build(image))
    }

    /// Packages an already-built [`Cfg`] (avoids re-recovering the graph
    /// when the caller also prints CFG diagnostics).
    pub fn from_cfg(cfg: &Cfg) -> AnalysisArtifact {
        AnalysisArtifact {
            arch: cfg.arch,
            entry: cfg.entry,
            text_base: cfg.text_base,
            text_len: cfg.text_len,
            cmp_operands: compare::harvest(cfg),
        }
    }

    /// Whether this artifact was produced from (a build identical to)
    /// `image`. Campaigns refuse mismatched artifacts rather than splicing
    /// constants harvested from some other firmware.
    pub fn matches_image(&self, image: &FirmwareImage) -> bool {
        self.arch == image.arch
            && self.entry == image.entry
            && self.text_base == image.rom_base
            && self.text_len == image.text.len() as u32 & !3
    }

    /// The harvested operand values (a value guarding several blocks
    /// repeats).
    pub fn operands(&self) -> Vec<u32> {
        self.cmp_operands.iter().map(|op| op.value).collect()
    }

    /// Serializes to the versioned JSON document.
    pub fn to_json(&self) -> String {
        let operands: Vec<String> =
            self.cmp_operands.iter().map(|op| format!("[{}, {}]", op.value, op.block)).collect();
        format!(
            "{{\n  \"version\": \"{VERSION}\",\n  \"arch\": \"{}\",\n  \"entry\": {},\n  \
             \"text_base\": {},\n  \"text_len\": {},\n  \"cmp_operands\": [{}]\n}}\n",
            arch_name(self.arch),
            self.entry,
            self.text_base,
            self.text_len,
            operands.join(", ")
        )
    }

    /// Parses the JSON document, validating the version tag and schema.
    pub fn parse(text: &str) -> Result<AnalysisArtifact, String> {
        let doc = json::parse(text)?;
        let version = get(&doc, "version")?.as_str().ok_or("version must be a string")?;
        if version != VERSION {
            return Err(format!("unsupported artifact version {version:?} (want {VERSION:?})"));
        }
        let arch_text = get(&doc, "arch")?.as_str().ok_or("arch must be a string")?;
        let arch =
            arch_from_name(arch_text).ok_or_else(|| format!("unknown arch {arch_text:?}"))?;
        let entry = as_u32(get(&doc, "entry")?).ok_or("entry must be a u32")?;
        let text_base = as_u32(get(&doc, "text_base")?).ok_or("text_base must be a u32")?;
        let text_len = as_u32(get(&doc, "text_len")?).ok_or("text_len must be a u32")?;
        let mut cmp_operands = Vec::new();
        for item in get(&doc, "cmp_operands")?.as_array().ok_or("cmp_operands must be an array")? {
            let pair = item.as_array().ok_or("each operand must be an array")?;
            if pair.len() != 2 {
                return Err("each operand must be [value, block]".to_string());
            }
            cmp_operands.push(CmpOperand {
                value: as_u32(&pair[0]).ok_or("operand value must be a u32")?,
                block: as_u32(&pair[1]).ok_or("operand block must be a u32")?,
            });
        }
        Ok(AnalysisArtifact { arch, entry, text_base, text_len, cmp_operands })
    }
}

fn get<'v>(obj: &'v Value, key: &str) -> Result<&'v Value, String> {
    obj.get(key).ok_or_else(|| format!("artifact is missing {key:?}"))
}

fn as_u32(value: &Value) -> Option<u32> {
    value.as_u64().and_then(|n| u32::try_from(n).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisArtifact {
        AnalysisArtifact {
            arch: Arch::Armv,
            entry: 0x1000,
            text_base: 0x1000,
            text_len: 0x8000,
            cmp_operands: vec![
                CmpOperand { value: 0x0BAD_F00D, block: 0x1020 },
                CmpOperand { value: 0x1234_5678, block: 0x1000 },
                CmpOperand { value: 0x1234_5678, block: 0x1010 },
            ],
        }
    }

    #[test]
    fn v2_json_round_trip() {
        let artifact = sample();
        let text = artifact.to_json();
        assert!(text.contains("\"embsan-analysis-v2\""));
        assert_eq!(AnalysisArtifact::parse(&text).unwrap(), artifact);
    }

    #[test]
    fn a_version_1_artifact_is_refused_by_name() {
        let v1 = r#"{"version": "embsan-analysis-v1", "arch": "Armv", "entry": 4096,
            "text_base": 4096, "text_len": 32768, "fn_entries": [4096], "address_taken": [],
            "blocks": [[4096, 4112, -1, 0, []]], "cmp_operands": [[305419896, 4096]],
            "default_targets": [4100]}"#;
        let err = AnalysisArtifact::parse(v1).unwrap_err();
        assert!(err.contains("\"embsan-analysis-v1\""), "{err}");
        assert!(err.contains("\"embsan-analysis-v2\""), "{err}");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(AnalysisArtifact::parse("").is_err());
        assert!(AnalysisArtifact::parse("{}").is_err());
        assert!(AnalysisArtifact::parse("[1, 2,").is_err());
        let trailing = format!("{} x", sample().to_json());
        assert!(AnalysisArtifact::parse(&trailing).is_err());
    }
}
