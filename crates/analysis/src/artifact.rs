//! The versioned `embsan-analysis-v1` artifact.
//!
//! One static-analysis run feeds many fuzzing campaigns (the Ember-IO
//! amortization idiom): `embsan analyze --out FILE` serializes everything a
//! directed campaign needs — the flow graph for the distance pass, the
//! harvested comparison operands, and the default target set (race-candidate
//! access sites) — as a small, versioned, dependency-free JSON document.
//! `embsan fuzz --analysis FILE` loads it back without re-running the
//! analyzer or even having the analyzer's image-parsing machinery wired up.
//!
//! The schema (all numbers are non-negative integers; arrays are sorted by
//! their first element):
//!
//! ```json
//! {
//!   "version": "embsan-analysis-v1",
//!   "arch": "Armv",
//!   "entry": 4096,
//!   "text_base": 4096,
//!   "text_len": 65536,
//!   "fn_entries": [4096, 4352],
//!   "address_taken": [4352],
//!   "blocks": [[start, end, call_target_or_-1, indirect_0_or_1, [succ, ...]], ...],
//!   "cmp_operands": [[value, guard_block], ...],
//!   "default_targets": [addr, ...]
//! }
//! ```
//!
//! The pretty layout is written here; reading goes through
//! [`embsan_obs::json`].

use std::collections::BTreeMap;

use embsan_asm::image::FirmwareImage;
use embsan_emu::profile::Arch;
use embsan_obs::json::{self, Value};

use crate::cfg::Cfg;
use crate::compare::{self, CmpOperand};
use crate::distance::{FlowGraph, FlowNode};
use crate::races;

/// The artifact format version tag.
pub const VERSION: &str = "embsan-analysis-v1";

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
    /// The flow graph the distance pass runs on.
    pub graph: FlowGraph,
    /// Harvested comparison operands with their guarding blocks.
    pub cmp_operands: Vec<CmpOperand>,
    /// Default direction targets: race-candidate access sites, most
    /// suspicious first (the order [`races::race_candidates`] ranks them).
    pub default_targets: Vec<u32>,
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
        let cfg = Cfg::build(image);
        AnalysisArtifact::from_cfg(&cfg, image)
    }

    /// Packages an already-built [`Cfg`] (avoids re-recovering the graph
    /// when the caller also prints CFG diagnostics).
    pub fn from_cfg(cfg: &Cfg, image: &FirmwareImage) -> AnalysisArtifact {
        let mut default_targets = Vec::new();
        for candidate in races::race_candidates(cfg, image) {
            for &pc in &candidate.unlocked_pcs {
                if !default_targets.contains(&pc) {
                    default_targets.push(pc);
                }
            }
        }
        AnalysisArtifact {
            arch: cfg.arch,
            entry: cfg.entry,
            text_base: cfg.text_base,
            text_len: cfg.text_len,
            graph: FlowGraph::from_cfg(cfg),
            cmp_operands: compare::harvest(cfg),
            default_targets,
        }
    }

    /// Whether this artifact was produced from (a build identical to)
    /// `image`. Campaigns refuse mismatched artifacts rather than steering
    /// toward addresses from some other firmware.
    pub fn matches_image(&self, image: &FirmwareImage) -> bool {
        self.arch == image.arch
            && self.entry == image.entry
            && self.text_base == image.rom_base
            && self.text_len == image.text.len() as u32 & !3
    }

    /// Serializes to the versioned JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": \"{VERSION}\",\n"));
        out.push_str(&format!("  \"arch\": \"{}\",\n", arch_name(self.arch)));
        out.push_str(&format!("  \"entry\": {},\n", self.entry));
        out.push_str(&format!("  \"text_base\": {},\n", self.text_base));
        out.push_str(&format!("  \"text_len\": {},\n", self.text_len));
        let entries: Vec<String> = self.graph.fn_entries.iter().map(u32::to_string).collect();
        out.push_str(&format!("  \"fn_entries\": [{}],\n", entries.join(", ")));
        let taken: Vec<String> = self.graph.address_taken.iter().map(u32::to_string).collect();
        out.push_str(&format!("  \"address_taken\": [{}],\n", taken.join(", ")));
        out.push_str("  \"blocks\": [\n");
        let blocks: Vec<String> = self
            .graph
            .nodes
            .values()
            .map(|node| {
                let succs: Vec<String> = node.succs.iter().map(u32::to_string).collect();
                let call = node.call_target.map_or(-1, i64::from);
                format!(
                    "    [{}, {}, {}, {}, [{}]]",
                    node.start,
                    node.end,
                    call,
                    u8::from(node.indirect_call),
                    succs.join(", ")
                )
            })
            .collect();
        out.push_str(&blocks.join(",\n"));
        out.push_str("\n  ],\n");
        let operands: Vec<String> =
            self.cmp_operands.iter().map(|op| format!("[{}, {}]", op.value, op.block)).collect();
        out.push_str(&format!("  \"cmp_operands\": [{}],\n", operands.join(", ")));
        let targets: Vec<String> = self.default_targets.iter().map(u32::to_string).collect();
        out.push_str(&format!("  \"default_targets\": [{}]\n", targets.join(", ")));
        out.push_str("}\n");
        out
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
        let fn_entries = u32_array(get(&doc, "fn_entries")?, "fn_entries")?;
        let address_taken = u32_array(get(&doc, "address_taken")?, "address_taken")?;
        let mut nodes = BTreeMap::new();
        for item in get(&doc, "blocks")?.as_array().ok_or("blocks must be an array")? {
            let fields = item.as_array().ok_or("each block must be an array")?;
            if fields.len() != 5 {
                return Err("each block must be [start, end, call, indirect, [succs]]".to_string());
            }
            let start = as_u32(&fields[0]).ok_or("block start must be a u32")?;
            let end = as_u32(&fields[1]).ok_or("block end must be a u32")?;
            let call_target = match fields[2].as_i64().ok_or("block call must be an integer")? {
                -1 => None,
                c => Some(u32::try_from(c).map_err(|_| "block call out of range")?),
            };
            let indirect_call = match fields[3].as_i64().ok_or("block indirect must be 0/1")? {
                0 => false,
                1 => true,
                other => return Err(format!("block indirect must be 0/1, got {other}")),
            };
            let succs = u32_array(&fields[4], "block succs")?;
            nodes.insert(start, FlowNode { start, end, succs, call_target, indirect_call });
        }
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
        let default_targets = u32_array(get(&doc, "default_targets")?, "default_targets")?;
        Ok(AnalysisArtifact {
            arch,
            entry,
            text_base,
            text_len,
            graph: FlowGraph { fn_entries, address_taken, nodes },
            cmp_operands,
            default_targets,
        })
    }
}

fn get<'v>(obj: &'v Value, key: &str) -> Result<&'v Value, String> {
    obj.get(key).ok_or_else(|| format!("artifact is missing {key:?}"))
}

fn as_u32(value: &Value) -> Option<u32> {
    value.as_u64().and_then(|n| u32::try_from(n).ok())
}

fn u32_array(value: &Value, what: &str) -> Result<Vec<u32>, String> {
    value
        .as_array()
        .ok_or_else(|| format!("{what} must be an array"))?
        .iter()
        .map(|v| as_u32(v).ok_or_else(|| format!("{what} entries must be u32")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::FlowNode;

    fn sample() -> AnalysisArtifact {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            0x1000,
            FlowNode {
                start: 0x1000,
                end: 0x1010,
                succs: vec![0x1010, 0x1020],
                call_target: None,
                indirect_call: true,
            },
        );
        nodes.insert(
            0x1010,
            FlowNode {
                start: 0x1010,
                end: 0x1020,
                succs: vec![],
                call_target: Some(0x2000),
                indirect_call: false,
            },
        );
        AnalysisArtifact {
            arch: Arch::Armv,
            entry: 0x1000,
            text_base: 0x1000,
            text_len: 0x8000,
            graph: FlowGraph {
                fn_entries: vec![0x1000, 0x2000],
                address_taken: vec![0x2000],
                nodes,
            },
            cmp_operands: vec![CmpOperand { value: 0x1234_5678, block: 0x1010 }],
            default_targets: vec![0x1014],
        }
    }

    #[test]
    fn json_round_trip() {
        let artifact = sample();
        let text = artifact.to_json();
        assert!(text.contains("embsan-analysis-v1"));
        let parsed = AnalysisArtifact::parse(&text).unwrap();
        assert_eq!(parsed, artifact);
    }

    #[test]
    fn version_is_checked() {
        let text = sample().to_json().replace("embsan-analysis-v1", "embsan-analysis-v0");
        let err = AnalysisArtifact::parse(&text).unwrap_err();
        assert!(err.contains("version"), "{err}");
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
