//! Basic-block translation with sanitizer probe splicing.
//!
//! This module is the reproduction's TCG: guest code is decoded once into
//! cached blocks of "translated" operations. When a sanitizer arms memory
//! probes, the *translation templates change* — each memory operation in a
//! freshly translated block carries a probe marker, and the whole cache is
//! flushed so stale unprobed blocks cannot run. This is precisely the §3.3
//! mechanism ("the Runtime modifies its translation template by inserting a
//! call to a delegate function `load_intercept()`"), expressed in a
//! micro-op interpreter instead of emitted host code.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use embsan_obs::{MetricClass, MetricsRegistry};

use crate::bus::Bus;
use crate::error::Fault;
use crate::hook::HookConfig;
use crate::isa::{Insn, Reg, Word};

/// Maximum instructions per translation block.
pub const MAX_BLOCK_LEN: usize = 64;

/// Maximum instructions per superblock (merged across unconditional direct
/// jumps). Bounds self-loop promotion, which otherwise doubles the block on
/// every merge.
pub const MAX_SUPERBLOCK_LEN: usize = 256;

/// One translated operation: a decoded instruction plus the probe markers
/// spliced in at translation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslatedOp {
    /// The decoded instruction.
    pub insn: Insn,
    /// Guest address of the instruction.
    pub pc: u32,
    /// A memory probe precedes this op (set only for memory accesses, and
    /// only when the translation-time hook configuration armed `mem`).
    pub probe_mem: bool,
    /// A call/return probe is attached to this op.
    pub probe_call: bool,
}

/// A resolved successor edge: the block starting at `target`, held weakly
/// so chained blocks do not keep evicted or flushed blocks alive.
#[derive(Debug)]
struct ChainEdge {
    target: u32,
    block: Weak<Block>,
}

/// Number of chain slots per block. Two covers both edges of a conditional
/// branch terminator (taken and fall-through).
const CHAIN_SLOTS: usize = 2;

/// A translated basic block.
///
/// Blocks carry two dispatch accelerators on top of their ops:
///
/// * **Chain slots** — weak successor edges installed by the executor so a
///   repeat of the same control transfer skips the [`BlockCache`] lookup
///   entirely. Chains are dispatch state, not translation content: clones
///   start unchained and equality ignores them.
/// * **Seams** — when blocks are merged into a superblock (see
///   [`BlockCache::try_promote`]), each merge point is recorded as
///   `(op_index, pc)`: the op at `op_index` is the first instruction of the
///   constituent block that started at `pc`. The executor uses seams to keep
///   block-entry probes and quantum accounting identical to the unmerged
///   execution.
#[derive(Debug)]
pub struct Block {
    /// Guest address of the first instruction.
    pub start: u32,
    /// The translated operations, in program order.
    pub ops: Vec<TranslatedOp>,
    /// Superblock merge points, ascending by op index (empty for plain
    /// blocks).
    pub seams: Vec<(usize, u32)>,
    chains: RefCell<[Option<ChainEdge>; CHAIN_SLOTS]>,
}

impl Block {
    /// Creates a plain (seamless, unchained) block.
    fn new(start: u32, ops: Vec<TranslatedOp>) -> Block {
        Block { start, ops, seams: Vec::new(), chains: RefCell::default() }
    }

    /// Follows the chain edge for `target`, if one is installed and its
    /// block is still alive.
    pub(crate) fn chained(&self, target: u32) -> Option<Rc<Block>> {
        for edge in self.chains.borrow().iter().flatten() {
            if edge.target == target {
                return edge.block.upgrade();
            }
        }
        None
    }

    /// Installs (or refreshes) the chain edge `target → next`. An existing
    /// slot for the same target is reused, then a free or dead slot; with
    /// all slots live for other targets the edge is dropped — chains are an
    /// accelerator, never required for correctness.
    pub(crate) fn install_chain(&self, target: u32, next: &Rc<Block>) {
        let mut chains = self.chains.borrow_mut();
        let mut candidate = None;
        for (i, slot) in chains.iter().enumerate() {
            match slot {
                Some(edge) if edge.target == target => {
                    candidate = Some(i);
                    break;
                }
                Some(edge) if edge.block.strong_count() == 0 => {
                    candidate.get_or_insert(i);
                }
                Some(_) => {}
                None => {
                    candidate.get_or_insert(i);
                }
            }
        }
        if let Some(i) = candidate {
            chains[i] = Some(ChainEdge { target, block: Rc::downgrade(next) });
        }
    }
}

impl Clone for Block {
    fn clone(&self) -> Block {
        // Chains are per-instance dispatch state: a clone starts unchained.
        Block {
            start: self.start,
            ops: self.ops.clone(),
            seams: self.seams.clone(),
            chains: RefCell::default(),
        }
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.start == other.start && self.ops == other.ops && self.seams == other.seams
    }
}

impl Eq for Block {}

/// Counters describing translation-cache behaviour, exposed through
/// `Machine::cache_stats` into the bench and campaign telemetry.
///
/// All counters are monotonic over the cache's lifetime (flushes do not
/// reset them), so deltas between two observations measure an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Blocks translated (each one is a cache miss that ran the decoder).
    pub translations: u64,
    /// Lookups served from a cached block.
    pub hits: u64,
    /// Hook-configuration switches that actually changed the configuration.
    pub reconfigures: u64,
    /// Reconfigurations that found a retained generation and reused its
    /// blocks instead of retranslating (the flush-on-reconfigure fix).
    pub generation_hits: u64,
    /// Generations evicted by the LRU bound.
    pub generation_evictions: u64,
    /// Full flushes (host-side code patching drops every generation).
    pub flushes: u64,
    /// Dispatches served through a direct chain edge or a superblock seam
    /// instead of a cache lookup (a subset of `hits`).
    pub chained_dispatches: u64,
    /// Superblocks formed by merging across unconditional direct jumps.
    pub superblocks_formed: u64,
}

impl CacheStats {
    /// Field-wise sum (aggregating per-worker caches in parallel campaigns).
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            translations: self.translations + other.translations,
            hits: self.hits + other.hits,
            reconfigures: self.reconfigures + other.reconfigures,
            generation_hits: self.generation_hits + other.generation_hits,
            generation_evictions: self.generation_evictions + other.generation_evictions,
            flushes: self.flushes + other.flushes,
            chained_dispatches: self.chained_dispatches + other.chained_dispatches,
            superblocks_formed: self.superblocks_formed + other.superblocks_formed,
        }
    }

    /// Copies every counter into `registry` under the `translator`
    /// subsystem, all in `class`.
    pub fn record_into(&self, registry: &mut MetricsRegistry, class: MetricClass) {
        registry.counter("translator", "translations", class, self.translations);
        registry.counter("translator", "hits", class, self.hits);
        registry.counter("translator", "reconfigures", class, self.reconfigures);
        registry.counter("translator", "generation_hits", class, self.generation_hits);
        registry.counter("translator", "generation_evictions", class, self.generation_evictions);
        registry.counter("translator", "flushes", class, self.flushes);
        registry.counter("translator", "chained_dispatches", class, self.chained_dispatches);
        registry.counter("translator", "superblocks_formed", class, self.superblocks_formed);
    }
}

/// One retained translation generation: every block translated under a
/// single [`HookConfig`].
#[derive(Debug)]
struct Generation {
    config: HookConfig,
    blocks: HashMap<u32, Rc<Block>>,
    /// Reconfiguration clock at last activation (LRU victim selection).
    last_used: u64,
}

/// Cache of translated blocks, keyed by `(start address, generation)`.
///
/// Each [`HookConfig`] the machine runs under gets its own *generation* of
/// translated blocks. Switching configurations via
/// [`BlockCache::reconfigure`] no longer flushes: a previously seen
/// configuration reactivates its retained generation, so workloads that
/// toggle sanitizer configurations (the ablation and overhead benches, the
/// fuzzer's coverage arming) retranslate the image at most once per
/// configuration. At most [`MAX_GENERATIONS`] generations are retained;
/// beyond that the least-recently-activated generation is evicted.
#[derive(Debug)]
pub struct BlockCache {
    gens: Vec<Generation>,
    /// Index of the active generation in `gens`.
    current: usize,
    /// Direct-mapped front cache over the active generation (the analogue
    /// of TCG's block chaining): most lookups hit here without touching the
    /// hash map. Invalidated on generation switch.
    front: Vec<Option<Rc<Block>>>,
    /// Reconfiguration clock driving `Generation::last_used`.
    clock: u64,
    stats: CacheStats,
    tracer: embsan_obs::Tracer,
}

impl Default for BlockCache {
    fn default() -> BlockCache {
        BlockCache::new()
    }
}

/// Size of the direct-mapped front cache (power of two).
const FRONT_SIZE: usize = 1 << 14;

/// Maximum retained generations (LRU-bounded; the active one never counts
/// as a victim).
pub const MAX_GENERATIONS: usize = 8;

/// Per-generation block-count bound: a generation that somehow exceeds this
/// is cleared rather than growing without limit (defensive; real firmware
/// text is orders of magnitude smaller).
const MAX_BLOCKS_PER_GENERATION: usize = 1 << 16;

#[inline]
fn front_index(pc: u32) -> usize {
    (pc >> 2) as usize & (FRONT_SIZE - 1)
}

impl BlockCache {
    /// Creates an empty cache with no probes armed.
    pub fn new() -> BlockCache {
        BlockCache {
            gens: vec![Generation {
                config: HookConfig::none(),
                blocks: HashMap::new(),
                last_used: 0,
            }],
            current: 0,
            front: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
            tracer: embsan_obs::Tracer::disabled(),
        }
    }

    /// Attaches an observability tracer (cache events: translate,
    /// generation hit/evict, flush).
    pub fn set_tracer(&mut self, tracer: embsan_obs::Tracer) {
        self.tracer = tracer;
    }

    /// The hook configuration the active generation was translated under.
    pub fn config(&self) -> HookConfig {
        self.gens[self.current].config
    }

    /// Installs a new hook configuration.
    ///
    /// A configuration seen before reactivates its retained generation
    /// (no retranslation); a new one opens a fresh generation, evicting the
    /// least-recently-used retained generation beyond [`MAX_GENERATIONS`].
    pub fn reconfigure(&mut self, config: HookConfig) {
        if config == self.gens[self.current].config {
            return;
        }
        self.stats.reconfigures += 1;
        self.clock += 1;
        // The front cache indexes the active generation only.
        self.front.clear();
        if let Some(idx) = self.gens.iter().position(|g| g.config == config) {
            self.current = idx;
            self.gens[idx].last_used = self.clock;
            self.stats.generation_hits += 1;
            self.tracer.record(embsan_obs::EventKind::CacheGenerationHit {
                generations: self.gens.len() as u32,
            });
            return;
        }
        if self.gens.len() >= MAX_GENERATIONS {
            // Infallible: MAX_GENERATIONS ≥ 2, so at least one non-current
            // generation exists.
            let victim = self
                .gens
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != self.current)
                .min_by_key(|&(_, g)| g.last_used)
                .map(|(i, _)| i)
                .expect("at least one evictable generation");
            self.gens.remove(victim);
            if victim < self.current {
                self.current -= 1;
            }
            self.stats.generation_evictions += 1;
            self.tracer.record(embsan_obs::EventKind::CacheGenerationEvict {
                generations: self.gens.len() as u32,
            });
        }
        self.gens.push(Generation { config, blocks: HashMap::new(), last_used: self.clock });
        self.current = self.gens.len() - 1;
    }

    /// Drops every cached block in every generation (e.g. after host-side
    /// code patching — the translated code is stale in *all* generations).
    pub fn flush(&mut self) {
        for gen in &mut self.gens {
            gen.blocks.clear();
        }
        self.front.clear();
        self.stats.flushes += 1;
        self.tracer.record(embsan_obs::EventKind::CacheFlush);
    }

    /// Number of blocks translated since creation (monotonic; not reset by
    /// flushes). Used by tests to observe cache behaviour.
    pub fn translation_count(&self) -> u64 {
        self.stats.translations
    }

    /// Number of cache hits since creation.
    pub fn hit_count(&self) -> u64 {
        self.stats.hits
    }

    /// All cache counters (hit/miss/generation telemetry).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Records a dispatch served through a chain edge or a superblock seam:
    /// still a hit (the dispatch ran cached translation), but one that
    /// skipped the lookup path entirely.
    pub(crate) fn note_chained(&mut self) {
        self.stats.hits += 1;
        self.stats.chained_dispatches += 1;
    }

    /// Merges `prev` with the cached block at `target` into a superblock
    /// installed at `prev.start`, recording the merge point as a seam.
    ///
    /// The caller guarantees `prev` ends in an unconditional direct jump to
    /// `target` (the seam contract: every execution of the last op of
    /// `prev`'s portion lands on `target`). The constituent block stays
    /// cached under its own start address — quantum expiry at a seam resumes
    /// through a plain lookup of the seam pc.
    ///
    /// Returns `None` when the merge does not apply (target not in the
    /// active generation's map, or the combined block would exceed
    /// [`MAX_SUPERBLOCK_LEN`]).
    pub(crate) fn try_promote(&mut self, prev: &Rc<Block>, target: u32) -> Option<Rc<Block>> {
        let gen = &mut self.gens[self.current];
        // Clone out before mutating the map: with a self-loop `target` is
        // `prev.start` and the insert below replaces this very entry.
        let next = Rc::clone(gen.blocks.get(&target)?);
        if prev.ops.len() + next.ops.len() > MAX_SUPERBLOCK_LEN {
            return None;
        }
        let mut ops = Vec::with_capacity(prev.ops.len() + next.ops.len());
        ops.extend_from_slice(&prev.ops);
        ops.extend_from_slice(&next.ops);
        let mut seams = prev.seams.clone();
        seams.push((prev.ops.len(), target));
        seams.extend(next.seams.iter().map(|&(i, pc)| (i + prev.ops.len(), pc)));
        let superblock =
            Rc::new(Block { start: prev.start, ops, seams, chains: RefCell::default() });
        gen.blocks.insert(prev.start, Rc::clone(&superblock));
        if !self.front.is_empty() {
            self.front[front_index(prev.start)] = Some(Rc::clone(&superblock));
        }
        self.stats.superblocks_formed += 1;
        Some(superblock)
    }

    /// Looks up (or translates) the block starting at `pc` in the active
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns a fetch or decode fault if `pc` does not point at valid code.
    pub fn lookup(&mut self, bus: &Bus, pc: u32) -> Result<Rc<Block>, Fault> {
        if self.front.is_empty() {
            self.front.resize(FRONT_SIZE, None);
        }
        let slot = front_index(pc);
        if let Some(block) = &self.front[slot] {
            if block.start == pc {
                self.stats.hits += 1;
                return Ok(Rc::clone(block));
            }
        }
        let gen = &mut self.gens[self.current];
        if let Some(block) = gen.blocks.get(&pc) {
            self.stats.hits += 1;
            let block = Rc::clone(block);
            self.front[slot] = Some(Rc::clone(&block));
            return Ok(block);
        }
        let block = Rc::new(translate_block(bus, pc, gen.config)?);
        self.stats.translations += 1;
        self.tracer.record(embsan_obs::EventKind::BlockTranslate { pc });
        if gen.blocks.len() >= MAX_BLOCKS_PER_GENERATION {
            gen.blocks.clear();
        }
        gen.blocks.insert(pc, Rc::clone(&block));
        self.front[slot] = Some(Rc::clone(&block));
        Ok(block)
    }
}

/// Whether an instruction is a call (writes a link register other than `r0`).
pub fn is_call(insn: &Insn) -> bool {
    match insn {
        Insn::Jal { rd, .. } | Insn::Jalr { rd, .. } => *rd != Reg::ZERO,
        _ => false,
    }
}

/// Whether an instruction is a return (`jalr r0, lr, 0` by ABI convention).
pub fn is_ret(insn: &Insn) -> bool {
    matches!(insn, Insn::Jalr { rd: Reg::R0, rs1: Reg::LR, .. })
}

/// Translates the block starting at `pc` without going through a cache —
/// exactly the ops [`BlockCache::lookup`] would produce under `config`.
///
/// This is the hook for static tooling (the `embsan-analysis` probe-coverage
/// auditor) that needs to cross-check the translator's probe splicing
/// against an independent enumeration of memory-op sites.
///
/// # Errors
///
/// Returns a fetch or decode fault if `pc` does not point at valid code.
pub fn translate_block_at(bus: &Bus, pc: u32, config: HookConfig) -> Result<Block, Fault> {
    translate_block(bus, pc, config)
}

/// Decodes a block starting at `pc`, splicing probes per `config`.
fn translate_block(bus: &Bus, pc: u32, config: HookConfig) -> Result<Block, Fault> {
    let mut ops = Vec::new();
    let mut cur = pc;
    loop {
        // A fetch or decode failure past the first instruction ends the block
        // early instead of faulting: the fault (if reachable) materializes
        // when execution actually arrives there.
        let raw = match bus.fetch(cur) {
            Ok(raw) => raw,
            Err(fault) => {
                if ops.is_empty() {
                    return Err(fault);
                }
                break;
            }
        };
        let insn = match Insn::decode(Word(raw)) {
            Ok(insn) => insn,
            Err(_) => {
                if ops.is_empty() {
                    return Err(Fault::IllegalInsn { pc: cur, word: raw });
                }
                break;
            }
        };
        let probe_mem = config.mem && insn.is_mem_access();
        let probe_call = config.calls && (is_call(&insn) || is_ret(&insn));
        ops.push(TranslatedOp { insn, pc: cur, probe_mem, probe_call });
        if insn.ends_block() || ops.len() >= MAX_BLOCK_LEN {
            break;
        }
        cur = cur.wrapping_add(4);
    }
    Ok(Block::new(pc, ops))
}

/// Classification of a call-probe op used by the executor.
pub(crate) fn call_kind(insn: &Insn) -> CallKind {
    if is_ret(insn) {
        CallKind::Ret
    } else if is_call(insn) {
        CallKind::Call
    } else {
        CallKind::Neither
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CallKind {
    Call,
    Ret,
    Neither,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ArchProfile;

    fn bus_with_text(insns: &[Insn]) -> (Bus, u32) {
        let profile = ArchProfile::armv();
        let mut text = Vec::new();
        for insn in insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        let bus = Bus::new(&profile, profile.rom_base, text, profile.ram_base, 0x1000, 1);
        (bus, profile.rom_base)
    }

    #[test]
    fn block_ends_at_branch() {
        let (bus, base) = bus_with_text(&[
            Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: 1 },
            Insn::Lw { rd: Reg::R2, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: -8 },
            Insn::Halt { code: 0 }, // unreachable, not part of block
        ]);
        let mut cache = BlockCache::new();
        let block = cache.lookup(&bus, base).unwrap();
        assert_eq!(block.ops.len(), 3);
        assert!(matches!(block.ops[2].insn, Insn::Jal { .. }));
    }

    #[test]
    fn probes_spliced_only_when_armed() {
        let (bus, base) = bus_with_text(&[
            Insn::Lw { rd: Reg::R2, rs1: Reg::R1, imm: 0 },
            Insn::Halt { code: 0 },
        ]);
        let mut cache = BlockCache::new();
        let block = cache.lookup(&bus, base).unwrap();
        assert!(!block.ops[0].probe_mem);

        cache.reconfigure(HookConfig { mem: true, ..HookConfig::none() });
        let block = cache.lookup(&bus, base).unwrap();
        assert!(block.ops[0].probe_mem);
        assert!(!block.ops[1].probe_mem); // halt is not a memory access
    }

    #[test]
    fn reconfigure_opens_new_generation() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        cache.lookup(&bus, base).unwrap();
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 1);
        assert_eq!(cache.hit_count(), 1);

        // A new configuration has no blocks yet: one fresh translation.
        cache.reconfigure(HookConfig::all());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);

        // Reinstalling the same config is a no-op.
        cache.reconfigure(HookConfig::all());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);
        assert_eq!(cache.hit_count(), 2);
    }

    #[test]
    fn toggling_config_reuses_retained_generation() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        let plain = HookConfig::none();
        let armed = HookConfig::all();

        cache.lookup(&bus, base).unwrap();
        cache.reconfigure(armed);
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);

        // Toggling back and forth must not retranslate: both generations
        // are retained.
        for _ in 0..10 {
            cache.reconfigure(plain);
            cache.lookup(&bus, base).unwrap();
            cache.reconfigure(armed);
            cache.lookup(&bus, base).unwrap();
        }
        assert_eq!(cache.translation_count(), 2);
        let stats = cache.stats();
        assert_eq!(stats.generation_hits, 20);
        assert_eq!(stats.generation_evictions, 0);
        assert_eq!(stats.reconfigures, 21);
    }

    #[test]
    fn lru_generation_eviction_respects_bound() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        // Cycle through more distinct configs than MAX_GENERATIONS. The
        // four HookConfig flags give 16 distinct configurations.
        let configs: Vec<HookConfig> = (0u8..16)
            .map(|bits| HookConfig {
                mem: bits & 1 != 0,
                hypercalls: bits & 2 != 0,
                blocks: bits & 4 != 0,
                calls: bits & 8 != 0,
            })
            .collect();
        for config in &configs {
            cache.reconfigure(*config);
            cache.lookup(&bus, base).unwrap();
        }
        assert_eq!(cache.stats().generation_evictions as usize, configs.len() - MAX_GENERATIONS);
        // The most recent config is still active and cached.
        let hits_before = cache.hit_count();
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.hit_count(), hits_before + 1);
    }

    #[test]
    fn flush_clears_every_generation() {
        let (bus, base) = bus_with_text(&[Insn::Halt { code: 0 }]);
        let mut cache = BlockCache::new();
        cache.lookup(&bus, base).unwrap();
        cache.reconfigure(HookConfig::all());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 2);

        cache.flush();
        // Both the active and the retained generation were dropped.
        cache.lookup(&bus, base).unwrap();
        cache.reconfigure(HookConfig::none());
        cache.lookup(&bus, base).unwrap();
        assert_eq!(cache.translation_count(), 4);
        assert_eq!(cache.stats().flushes, 1);
    }

    #[test]
    fn call_and_ret_classification() {
        assert_eq!(call_kind(&Insn::Jal { rd: Reg::LR, offset: 16 }), CallKind::Call);
        assert_eq!(call_kind(&Insn::Jalr { rd: Reg::LR, rs1: Reg::R3, imm: 0 }), CallKind::Call);
        assert_eq!(call_kind(&Insn::Jalr { rd: Reg::R0, rs1: Reg::LR, imm: 0 }), CallKind::Ret);
        // A plain computed goto is neither.
        assert_eq!(call_kind(&Insn::Jalr { rd: Reg::R0, rs1: Reg::R3, imm: 0 }), CallKind::Neither);
    }

    #[test]
    fn illegal_instruction_reports_pc() {
        let profile = ArchProfile::armv();
        let bus = Bus::new(&profile, profile.rom_base, vec![0xFF; 8], profile.ram_base, 0x1000, 1);
        let mut cache = BlockCache::new();
        let err = cache.lookup(&bus, profile.rom_base).unwrap_err();
        assert_eq!(err, Fault::IllegalInsn { pc: profile.rom_base, word: 0xFFFF_FFFF });
    }

    #[test]
    fn max_block_length_is_enforced() {
        let insns = vec![Insn::Nop; MAX_BLOCK_LEN + 10];
        let (bus, base) = bus_with_text(&insns);
        let mut cache = BlockCache::new();
        let block = cache.lookup(&bus, base).unwrap();
        assert_eq!(block.ops.len(), MAX_BLOCK_LEN);
    }
}
